(** The user revocation list (URL) of the paper: a set of revocation tokens
    (the [A] components of revoked group private keys), signed by the
    network operator and carried in beacon messages. *)

open Peace_ec
open Peace_groupsig

type t = {
  seq : int;
  issued_at : int;
  tokens : Group_sig.revocation_token list;
  signature : Ecdsa.signature;
}

val issue :
  Config.t -> operator_key:Ecdsa.keypair -> seq:int -> now:int ->
  tokens:Group_sig.revocation_token list -> t

val verify : Config.t -> operator_public:Curve.point -> t -> bool

val tokens : t -> Group_sig.revocation_token list
val size : t -> int

val mem : Config.t -> t -> Group_sig.revocation_token -> bool
(** Point-equality membership (not the pairing check — that is
    {!Group_sig.verify}'s job against signatures). *)

val to_bytes : Config.t -> t -> string
val of_bytes : Config.t -> string -> t option
(** Decodes and checks every token ({!Peace_pairing.G1.decode}). The last
    successful decode is kept, process-wide: on the same bytes under the
    same parameter set and curve (physically equal [config.pairing] and
    [config.curve]) it returns the kept value without decoding again. Any
    other input is decoded afresh and, if it decodes, replaces the kept
    value. Safe to call from several domains. *)

val empty : Config.t -> operator_key:Ecdsa.keypair -> now:int -> t
(** Sequence-0 list with no tokens. *)

val pp : Format.formatter -> t -> unit
