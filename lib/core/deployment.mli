(** End-to-end deployment orchestration.

    Wires together the operator, TTP, group managers, routers and users,
    and runs the complete offline setup of §IV-A, including the
    three-way key-share split and all non-repudiation receipts. The
    examples, the test suite and the WMN simulator all build on this. *)

open Peace_groupsig

type t

val create : ?seed:string -> Config.t -> t
(** Fresh deployment: operator + TTP, no groups/routers/users yet.
    Deterministic for a given [seed]. *)

val config : t -> Config.t
val operator : t -> Network_operator.t
val ttp : t -> Ttp.t
val gpk : t -> Group_sig.gpk
val rng : t -> int -> string

val add_group : t -> group_id:int -> size:int -> Group_manager.t
(** Registers a user group of [size] keys: NO issues the batch, the GM
    verifies and counter-signs, the TTP stores the blinded halves, and the
    operator validates the GM receipt. *)

val group_manager : t -> group_id:int -> Group_manager.t option

val add_router : t -> router_id:int -> Mesh_router.t
(** Creates a router, certifies it with the operator, and installs the
    current revocation lists. *)

val router : t -> router_id:int -> Mesh_router.t option

val add_user : t -> Identity.t -> (User.t, string) result
(** Creates a user and enrolls it in every group its identity claims a
    role in (per §IV-A: GM share + TTP blinded share + receipts). Fails if
    a group is unknown or exhausted. *)

val user : t -> uid:string -> User.t option

val refresh_routers : t -> unit
(** Pushes the operator's current CRL/URL to every router (the
    pre-established secure channels of §III-A). *)

val authenticate :
  t -> user:User.t -> router:Mesh_router.t -> ?group_id:int -> unit ->
  (Session.t * Session.t, Protocol_error.t) result
(** One full user–router handshake (M.1 → M.2 → M.3); returns the user's
    and the router's session (which must match). *)

val peer_authenticate :
  t -> initiator:User.t -> responder:User.t -> router:Mesh_router.t ->
  ?initiator_group:int -> unit ->
  (Session.t * Session.t, Protocol_error.t) result
(** One full user–user handshake (M̃.1 → M̃.2 → M̃.3), using the router's
    current beacon for the DH generator. *)

val revoke_user : t -> uid:string -> group_id:int -> (unit, string) result
(** Dynamic revocation: GM reports the member's index, NO publishes the
    token in the URL, routers are refreshed. *)

val revoke_router : t -> router_id:int -> unit

val trace_session :
  t -> Mesh_router.t -> session_id:string -> Law_authority.trace_result option
(** The full audit chain on a logged session: router log → NO audit → GM
    lookup. *)

val rotate_epoch : t -> unit
(** URL compaction (§V-A "group public key update"): the operator rolls
    the group master secret, reissues keys to all non-revoked members
    through the GM/TTP channels, distributes the new group public key to
    routers and users, and publishes an empty URL. Revoked members stay
    locked out (their old keys no longer verify); everyone else continues
    transparently. *)
