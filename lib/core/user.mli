(** A network user (uid_j): enrolls with its user groups, authenticates
    anonymously to mesh routers (§IV-B) and to peer users (§IV-C), and
    hands each established session to its caller.

    A user may belong to several user groups and holds one group private
    key per membership; which key signs a given session determines which
    nonessential attribute an audit could reveal, so callers choose the
    role per operation ([?group_id]). *)

open Peace_ec
open Peace_groupsig

type t

val create :
  Config.t -> identity:Identity.t -> gpk:Group_sig.gpk ->
  operator_public:Curve.point -> rng:(int -> string) -> t

val identity : t -> Identity.t
val receipt_public_key : t -> Curve.point
(** The user's long-term ECDSA key for setup receipts (used only during
    offline enrollment; never appears in network protocols). *)

(** {1 Enrollment (§IV-A)} *)

val enroll :
  t -> credential:Group_manager.member_credential -> blinded_a:string ->
  (Ecdsa.signature, string) result
(** Combines the GM share with the TTP's blinded share, unblinds, validates
    the assembled key against the group public key, and returns the user's
    receipt signature over the TTP payload. *)

val enrolled_groups : t -> int list

(** {1 User–router authentication (§IV-B)} *)

type pending_access
(** Client state between (M.2) sent and (M.3) received. *)

val process_beacon :
  t -> ?group_id:int -> Messages.beacon ->
  (Messages.access_request * pending_access, Protocol_error.t) result
(** Validates the beacon (timestamp, certificate, CRL, router signature),
    solves the puzzle if present, signs the DH transcript with the chosen
    group key, and produces (M.2). Also caches the beacon's CRL/URL as the
    user's current revocation view.

    The user remembers the last beacon whose four signatures (certificate,
    CRL, URL, beacon) all verified under its operator key. A beacon
    physically equal to it — what {!Messages.beacon_of_bytes} returns for
    the same bytes — skips those four ECDSA verifies and nothing else:
    the timestamp window, the certificate's expiry, the router id, the
    CRL's staleness and membership in the freshest known CRL are checked
    again, in the same order, so every verdict is the one a full check
    gives. *)

val process_confirm :
  t -> pending_access -> Messages.access_confirm ->
  (Session.t, Protocol_error.t) result
(** Completes the handshake: checks the echoed shares, decrypts (M.3),
    checks the router id and the shares inside it, and installs the
    session. The echoes are compared byte for byte with the encodings of
    the pending shares, with no point decoded; any mismatch, including
    bytes that encode no point, is [Unknown_session]. *)

(** {1 User–user authentication (§IV-C)} *)

type pending_peer
(** Initiator state between (M̃.1) and (M̃.2). *)

type pending_peer_responder
(** Responder state between (M̃.2) and (M̃.3). *)

val peer_hello :
  t -> ?group_id:int -> g:Peace_pairing.G1.point -> unit ->
  (Messages.peer_hello * pending_peer, Protocol_error.t) result
(** (M̃.1): local broadcast seeking relay peers; [g] comes from the current
    beacon. *)

val process_peer_hello :
  t -> ?group_id:int -> Messages.peer_hello ->
  (Messages.peer_response * pending_peer_responder, Protocol_error.t) result

val process_peer_response :
  t -> pending_peer -> Messages.peer_response ->
  (Messages.peer_confirm * Session.t, Protocol_error.t) result
(** (M̃.2)'s echo of the initiator's share is compared as bytes, as in
    {!process_confirm}; the transcript is built from those bytes. *)

val process_peer_confirm :
  t -> pending_peer_responder -> Messages.peer_confirm ->
  (Session.t, Protocol_error.t) result
(** (M̃.3)'s two echoes are compared as bytes, as in {!process_confirm}. *)

(** {1 State} *)

val current_url : t -> Url.t option
(** The latest URL learned from beacons. *)

val puzzle_work_done : t -> int
(** Total client-puzzle search steps this user has spent (DoS
    experiment metric). *)

val learn_lists : t -> Cert.crl -> Url.t -> unit
(** Adopt a CRL/URL pair learned out of band (e.g. from another router's
    beacon while roaming); older sequence numbers are ignored. *)

val update_gpk : t -> Group_sig.gpk -> unit
(** Epoch rotation: installs the new group public key and drops all held
    keys (they no longer verify); re-enroll via the group managers. *)
