(** A mesh router (MR_k): broadcasts beacons, authenticates users via their
    group signatures, establishes per-session keys, and logs access
    requests for the operator's audit (paper §IV-B).

    Routers keep the per-beacon DH secret r_R until the beacon expires, so
    an access request can arrive against any recent beacon. Under a
    suspected DoS attack they attach client puzzles to beacons and refuse
    to verify group signatures on requests without a valid solution
    (§V-A). *)

open Peace_ec
open Peace_groupsig

type t

(** A logged (M.2) for the audit trail of §IV-D. The group signature is
    kept as its wire bytes; {!logged_signature} decodes it for an audit. *)
type log_entry = {
  le_session_id : string;
  le_ts : int;
  le_transcript : string;
  le_gsig_bytes : string;
}

val create :
  Config.t -> router_id:int -> gpk:Group_sig.gpk ->
  operator_public:Curve.point -> rng:(int -> string) -> t
(** The router generates its ECDSA keypair; certify it with
    {!Network_operator.register_router} and install via {!install_cert}. *)

val router_id : t -> int
val public_key : t -> Curve.point
val install_cert : t -> Cert.t -> unit
val update_lists : t -> Cert.crl -> Url.t -> unit
(** Periodic refresh from the operator (pre-established secure channel). *)

val set_under_attack : t -> difficulty:int -> unit
(** Enables client puzzles on subsequent beacons. *)

val clear_under_attack : t -> unit
val under_attack : t -> bool

val beacon : t -> Messages.beacon
(** Emits (M.1) with a fresh DH generator and share.
    @raise Invalid_argument if no certificate is installed. *)

val handle_access_request :
  t -> Messages.access_request ->
  (Messages.access_confirm * Session.t, Protocol_error.t) result
(** Processes (M.2): freshness, puzzle (when under attack), group-signature
    verification with URL revocation scan, then key agreement and (M.3). *)

(** {2 Split (M.2) handling}

    {!handle_access_request} in three phases, for callers that serialise
    router state behind a lock but want the expensive group-signature
    check outside it (the live {!Peace_service.Authority} server: cheap
    phases under its router mutex, verification on the connection
    worker with the mutex released). {!access_precheck} and
    {!access_finish} mutate router state (replay cache, sessions, audit
    log) and must run under whatever lock guards the router; the verify
    inputs they hand over — transcript, URL snapshot, {!current_gpk} —
    are immutable and safe to use from any domain.

    A caller holding the (M.2)'s bytes stages the decode as well:
    {!access_precheck_frame} on the encodings under the lock, then
    {!access_points} and the verification off it, then {!access_finish}.
    A decoded record goes through {!access_precheck}, which runs the same
    checks on its points' encodings. *)

type access_ticket
(** Pass-through state between {!access_precheck} and {!access_finish}. *)

val access_precheck :
  t -> Messages.access_request ->
  [ `Reject of Protocol_error.t
  | `Resend of Messages.access_confirm * Session.t
  | `Verify of access_ticket * string * Group_sig.revocation_token list ]
(** Freshness, beacon matching, replay cache, puzzle. [`Verify (ticket,
    transcript, url)] means the request survived the cheap checks: verify
    [transcript]'s group signature against [url] (e.g.
    [Group_sig.verify (current_gpk t) ~url ~msg:transcript m.gsig]) and
    hand the verdict to {!access_finish}. The checks read the shares'
    encodings only: the beacon is looked up by [ar_g_rr]'s bytes and the
    transcript is built from bytes. A request that reaches [`Verify]
    enters the replay cache. *)

val access_precheck_frame :
  t -> Messages.access_frame ->
  [ `Reject of Protocol_error.t
  | `Resend of Messages.access_confirm * Session.t
  | `Verify of access_ticket * string * Group_sig.revocation_token list ]
(** {!access_precheck} on an (M.2) that has been framed but whose points
    are not decoded ({!Messages.access_frame_of_bytes}): the same checks
    in the same order with the same verdicts, and no point decoded, so a
    frame refused here costs no square root and no scalar
    multiplication. On [`Verify], decode its points with {!access_points}
    before the signature check. *)

val access_points :
  t -> Group_sig.gpk -> access_ticket -> Messages.access_frame ->
  Messages.access_request option
(** The point stage of a frame that passed {!access_precheck_frame} with
    [ticket]: decodes [g_rj], T1 and T2, each with its subgroup check
    ({!Messages.access_request_of_frame}). [ar_g_rr] is never decoded:
    the ticket's beacon holds the point. Reads no mutable router state,
    so it runs without the router's lock. [None] when a point does not
    decode; the frame then stays in the replay cache and is not counted
    as a verification. *)

val access_finish :
  t -> Messages.access_request -> access_ticket ->
  Group_sig.verify_result ->
  (Messages.access_confirm * Session.t, Protocol_error.t) result
(** Key agreement, audit log and (M.3) on [Valid]; the matching protocol
    error otherwise. *)

val current_gpk : t -> Group_sig.gpk
(** The group public key this router currently verifies against. *)

val access_log : t -> log_entry list
(** Most recent first. *)

val logged_signature : t -> log_entry -> Group_sig.signature option
(** The entry's group signature, decoded; [None] only if its bytes were
    not written by this router's parameters. *)

val verifications_performed : t -> int
(** Number of group-signature verifications this router has executed —
    the DoS experiment's cost metric. Counted by {!access_finish}, which
    takes a verdict: a request refused by the cheap checks, or whose
    points do not decode, is not counted. *)

val requests_rejected_cheaply : t -> int
(** Requests dropped before any expensive verification (bad puzzle /
    missing solution / stale) — the puzzle defence's benefit metric. *)

val enable_resend_cache : t -> unit
(** Idempotent duplicate handling for lossy links: a replayed (M.2) whose
    transcript the router already answered gets the {e cached} (M.3) back
    instead of a rejection — no re-verification, no new session — so a
    user whose confirm was lost can recover by retransmitting. Off by
    default: without it every replay is rejected outright (the strict
    §V-A replay rule the attack matrix asserts). Cache entries expire
    with the replay cache (2× the timestamp window). *)

val confirms_resent : t -> int
(** (M.3)s served from the resend cache (never counted as
    verifications). *)

val outstanding_count : t -> int
(** Live entries in the pending-handshake (beacon) table. *)

val max_outstanding : int
(** The pending-handshake table's bound, 512: beyond it the oldest
    beacons are evicted first, so beacon floods cannot exhaust memory.
    Entries also expire after 2× the timestamp window regardless of
    pressure. *)

val update_gpk : t -> Group_sig.gpk -> unit
(** Epoch rotation: installs the operator's new group public key. *)

