(** A user group manager (GMᵢ): a company, university, club… that
    subscribes to the WMN on behalf of its members.

    Receives [(grpᵢ, x_j)] pairs from the operator (never the A
    components), assigns them to members it has authenticated out-of-band,
    and keeps the [uid ↔ j] record that only the law-authority tracing
    procedure of §IV-D may consult. Its capability is deliberately no more
    than an ordinary user's: it cannot link signatures to members. *)

open Peace_bigint
open Peace_ec

type t

(** What a member receives from the GM: the share plus where to fetch the
    blinded other half. *)
type member_credential = {
  mc_group_id : int;
  mc_index : int;
  mc_grp_secret : Bigint.t;
  mc_member_secret : Bigint.t;
}

val create : Config.t -> group_id:int -> rng:(int -> string) -> t
val group_id : t -> int
val receipt_public_key : t -> Curve.point

val load_registration :
  t -> operator_public:Curve.point -> Network_operator.group_registration ->
  (Ecdsa.signature, string) result
(** Verifies the operator's signature on the batch, absorbs the shares, and
    returns the GM's counter-signature (its non-repudiation receipt). *)

val assign : t -> uid:string -> member_credential option
(** Pops an unassigned key for a member; [None] when exhausted. The GM
    records the [uid ↔ index] binding. *)

val available_keys : t -> int

val lookup_uid : t -> index:int -> string option
(** The tracing lookup (law-authority path only). *)

val index_of_uid : t -> uid:string -> int option
(** Reverse lookup, used when reporting a member for revocation. *)

val reissue :
  t -> operator_public:Curve.point -> Network_operator.group_registration ->
  ((string * member_credential) list, string) result
(** Epoch rotation intake: verifies the batch, discards stale unassigned
    shares from the previous epoch, matches fresh shares to existing
    member assignments by index, and returns the per-member deliveries.
    Shares for never-assigned indices become available for new members. *)
