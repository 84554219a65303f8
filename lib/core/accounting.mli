(** Privacy-preserving usage accounting.

    The paper motivates access control partly by billing ("for both billing
    purpose and avoiding abuse of network resources", §I) and argues the
    group-level audit result "is sufficient for user accountability
    purposes" (§IV-D). This module realises that: routers meter sessions
    anonymously; the operator attributes each metered session to a user
    GROUP via the audit protocol and produces per-group invoices. No
    individual user is ever identified — each group manager apportions its
    own invoice internally, exactly as the paper's service-subscription
    agreements prescribe. *)

type usage = {
  u_session_id : string;
  u_bytes_up : int;
  u_bytes_down : int;
  u_duration_ms : int;
}

type meter
(** A router-side meter: accumulates per-session counters. *)

val create_meter : unit -> meter

val open_session : meter -> session_id:string -> unit
(** Start metering a session (idempotent for an already-live session).
    Recording traffic opens implicitly; an explicit open lets a
    zero-byte session be closed and billed for its duration. *)

val record_up : meter -> session_id:string -> bytes:int -> unit
val record_down : meter -> session_id:string -> bytes:int -> unit

val close_session : meter -> session_id:string -> duration_ms:int -> bool
(** Close a live session, moving its counters to {!usages} and emitting
    an audit-ledger [session_close] event. [false] — and no usage
    record — when the session is not live: closing an unknown session or
    closing twice cannot create (or duplicate) billable records. *)

val usages : meter -> usage list
(** Closed sessions only, most recent first. *)

val open_sessions : meter -> int

(** One group's line on the operator's invoice. *)
type invoice_line = {
  il_group_id : int;
  il_sessions : int;
  il_bytes : int;
  il_duration_ms : int;
}

val invoice :
  Network_operator.t -> ledger:string list -> meter -> invoice_line list
(** Attributes every metered (closed) session to its user group and
    aggregates. Each usage joins the [access_accept] record of the same
    session id in [ledger] (one rendered audit record per line), and that
    record's transcript and signature open with {!Network_operator.audit}.
    The ledger's accept records are indexed once, and read only if its
    chain verifies ({!Mesh_router.accepted_sessions}): a ledger that fails
    verification bills nothing. Sessions the ledger does not hold, or
    whose signature does not open (e.g. foreign/unknown keys), are skipped
    — they were never granted access in the first place. Lines are sorted
    by group id. *)

val pp_invoice : Format.formatter -> invoice_line list -> unit
