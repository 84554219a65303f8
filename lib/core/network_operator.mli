(** The network operator (NO).

    Holds the group master secret γ, generates all SDH key tuples, splits
    them between group managers (who get [(grp_i, x_j)]) and the TTP (who
    gets the blinded [A ⊕ x]), certifies mesh routers, maintains the CRL
    and URL, and runs the audit protocol of §IV-D — which attributes a
    logged session to a {e user group}, never to an individual. *)

open Peace_bigint
open Peace_ec
open Peace_groupsig

type t

(** One key's share destined for group manager i: ([i,j], grpᵢ, xⱼ). *)
type gm_share = { index : int; grp_secret : Bigint.t; member_secret : Bigint.t }

(** One key's share destined for the TTP: ([i,j], A_{i,j} ⊕ pad(xⱼ)). *)
type ttp_share = { ts_group_id : int; ts_index : int; blinded_a : string }

(** The signed batch produced when a user group registers (steps 2–7 of
    §IV-A). The operator's ECDSA signature gives the exchange
    non-repudiation. *)
type group_registration = {
  reg_group_id : int;
  gm_shares : gm_share list;
  ttp_shares : ttp_share list;
  no_signature : Ecdsa.signature;
}

val registration_payload : Config.t -> int -> gm_share list -> string
(** The bytes [no_signature] covers (and that the GM counter-signs as its
    receipt). *)

val create : Config.t -> rng:(int -> string) -> t
val gpk : t -> Group_sig.gpk
val public_key : t -> Curve.point
(** NPK — pre-distributed to every entity. *)

val sign_audit : t -> string -> Ecdsa.signature
(** Sign an audit-ledger checkpoint payload with the operator's
    certificate key; {!public_key} (already distributed as NPK) verifies
    it, which is what lets anyone re-check a ledger offline. *)

(** {1 User group management} *)

val register_group : t -> group_id:int -> size:int -> group_registration
(** Draws grpᵢ, generates [size] SDH tuples, signs the batch.
    @raise Invalid_argument if the group already exists. *)

val extend_group : t -> group_id:int -> size:int -> group_registration
(** Membership addition: more tuples for an existing group. *)

val record_gm_receipt : t -> group_id:int -> Ecdsa.signature -> bool
(** Stores the GM's counter-signature over the registration payload after
    verifying it against the GM's known receipt key (see
    {!set_gm_receipt_key}); false if it does not verify. *)

val set_gm_receipt_key : t -> group_id:int -> Curve.point -> unit

val group_count : t -> int
val grt_size : t -> int
(** Number of revocation tokens the operator holds (all issued keys). *)

(** {1 Router management} *)

val register_router : t -> router_id:int -> router_public:Curve.point -> Cert.t
val revoke_router : t -> router_id:int -> unit

(** {1 Revocation lists} *)

val revoke_user_key : t -> group_id:int -> index:int -> unit
(** Publishes the key's token in the URL (dynamic revocation).
    @raise Not_found if no such key was issued. *)

val refresh_lists : t -> unit
(** Re-issues CRL and URL at the current time — the operator's periodic
    update. *)

val current_crl : t -> Cert.crl
val current_url : t -> Url.t

(** {1 Audit (§IV-D)} *)

type audit_finding = {
  found_group_id : int;
  found_index : int;  (** [j] — meaningful only to NO and the GM *)
  found_token : Group_sig.revocation_token;
}

val audit : t -> msg:string -> Group_sig.signature -> audit_finding option
(** Scans grt for the token encoded in (T1, T2). Reveals the user group —
    the nonessential attribute — and nothing else about the signer. *)

(** {1 Epoch rotation (URL compaction)}

    §V-A's second revocation mechanism: instead of letting the URL grow,
    the operator periodically rolls the whole group to a fresh master
    secret ("group public key update"). Unrevoked keys are reissued and
    redistributed through the normal GM/TTP channels; revoked members
    simply receive nothing, and the new epoch starts with an empty URL. *)

val rotate_epoch : t -> (int * group_registration) list
(** Draws a fresh γ and group public key, reissues every non-revoked key
    (same indices, fresh secrets) and empties the URL. Returns the new
    registration batch per group id, to be routed to each GM and the TTP.
    Previously issued keys stop verifying against the new gpk. *)

val epoch : t -> int
(** Number of rotations performed. *)
