(** Router public-key certificates and the certificate revocation list,
    both signed by the network operator with ECDSA (paper §IV-A:
    Cert_k = \{MR_k, RPK_k, ExpT, Sig_NSK\}). *)

open Peace_ec

type t = {
  router_id : int;
  public_key : Curve.point;  (** RPK_k *)
  expires_at : int;  (** ExpT, ms *)
  signature : Ecdsa.signature;  (** Sig_NSK *)
}

type error =
  | Expired
  | Bad_signature
  | Revoked
  | Malformed

val pp_error : Format.formatter -> error -> unit

val issue :
  Config.t -> operator_key:Ecdsa.keypair -> router_id:int ->
  public_key:Curve.point -> now:int -> t

val verify :
  Config.t -> operator_public:Curve.point -> now:int -> t ->
  (unit, error) result
(** Signature and expiry only; revocation is checked against a {!crl}. *)

val expired : t -> now:int -> bool
(** Past its ExpT: {!verify}'s first check, without the signature. *)

val to_bytes : Config.t -> t -> string
val of_bytes : Config.t -> string -> t option

(** {1 Certificate revocation list} *)

type crl = {
  seq : int;  (** monotonically increasing issue number *)
  issued_at : int;
  revoked_routers : int list;
  crl_signature : Ecdsa.signature;
}

val issue_crl :
  Config.t -> operator_key:Ecdsa.keypair -> seq:int -> now:int ->
  revoked:int list -> crl

val verify_crl :
  Config.t -> operator_public:Curve.point -> crl -> (unit, error) result

val crl_mem : crl -> router_id:int -> bool

val crl_is_stale : Config.t -> crl -> now:int -> bool
(** True once the next periodic re-issue is overdue — the phishing window
    analysis of §V-A hinges on this. *)

val crl_to_bytes : Config.t -> crl -> string
val crl_of_bytes : Config.t -> string -> crl option
