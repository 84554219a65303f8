(** Span tracing: nested, cross-domain-safe, with one structured event
    stream.

    [with_span "groupsig.verify" (fun () -> ...)] times the thunk into the
    registry histogram ["groupsig.verify_ns"] and — when a
    collector is installed — hands it a begin event and an end event.
    Renderers in {!Expo} turn the stream into span JSONL (one JSON object
    per event), Chrome trace-event JSON or folded stacks; {!Profile} folds
    it into a call tree.

    A begin event's [parent] is the id of the enclosing span on the same
    domain ([None] at top level), so the stream reconstructs the call
    tree. Span stacks are domain-local; ids are process-global. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Runs the thunk inside a span: a handle {!start}ed under
    {!current_span}, made the innermost parent for the thunk, and
    {!finish}ed when it returns. Exceptions propagate; the end event and
    the histogram observation still happen. *)

val current_span : unit -> int option
(** The innermost open span id on the calling domain, if any. *)

(** {1 Explicit span handles}

    [with_span] ties a span to a call frame, so it cannot survive a
    {!Peace_sim.Engine} event hop: the scheduled handler runs later on an
    empty stack and its spans come out unrelated. Handles decouple span
    lifetime from control flow — [start] in one event, [finish] in
    another, with parentage explicit. The parent is an [int] id, so it
    can travel inside a (simulated) protocol message and stitch a
    multi-message handshake into one causal trace. *)

type handle
(** An open span. Finishing twice is a no-op. *)

val start :
  ?attrs:(string * string) list ->
  ?parent:int ->
  ?trace:int ->
  ?remote_parent:int ->
  ?ts:int ->
  string ->
  handle
(** Open a span and emit its begin event (when a collector is set).
    [parent] is an explicit span id ([None] = root); the domain-local
    stack is not consulted. [trace] tags the span with a trace id that
    correlates spans across processes; [remote_parent] names a parent
    span that lives in {e another} process (it does not affect local
    tree building — renderers join on [(trace, remote_parent)]). [ts]
    overrides the begin timestamp — simulation code passes simulated
    time, so durations come out in simulated units; default is wall
    {!Registry.now_ns}. Use one time base consistently per trace. Only a
    wall-clock span (no [ts]) records into the ["<name>_ns"] histogram. *)

val start_linked :
  ?attrs:(string * string) list -> ?ts:int -> parent:handle -> string -> handle
(** [start ~parent:(id parent)] — child of a handle you still hold.
    Inherits the parent's trace id. *)

val start_remote :
  ?attrs:(string * string) list ->
  ?ts:int ->
  trace:int ->
  parent:int ->
  string ->
  handle
(** Continue a trace that began in another process: the wire carried
    [(trace, parent)] (see {!Peace_service.Frames}), and this opens a
    local root span stamped with that trace id and [remote_parent]. *)

val id : handle -> int
(** The span id — embed it in a message so a later event (possibly in
    another entity) can open children under it with [start ~parent]. *)

val trace_of : handle -> int option
(** The trace id the handle was opened with, if any. *)

val with_parent : handle -> (unit -> 'a) -> 'a
(** Run the thunk with the handle as the innermost parent on this
    domain's span stack, so plain [with_span] calls inside nest under
    it — the bridge from an explicit handle to stack-scoped spans. *)

val fresh_trace_id : unit -> int
(** A new trace id, unique within this process and best-effort unique
    across processes (pid- and clock-mixed base). Fits in 62 bits. *)

val finish : ?ts:int -> handle -> unit
(** Emit the end event and, for a wall-clock span, record the duration
    into the ["<name>_ns"] histogram, resolved once per name. [ts] must
    use the same time base as [start]'s. Idempotent. *)

(** {1 The event stream}

    Every span output is a collector over these values:
    {!Peace_obs.Expo.jsonl_to} writes span JSONL, {!Peace_obs.Expo.record}
    keeps the events for Chrome-trace export, {!Peace_obs.Profile} folds
    them into a call tree. *)

type event =
  | Begin of {
      name : string;
      id : int;
      parent : int option;
      ts : int;
      trace : int option;
          (** cross-process trace id, when the span belongs to one *)
      remote_parent : int option;
          (** parent span id in {e another} process (from the wire) *)
      attrs : (string * string) list;  (** the span's [?attrs] *)
    }
  | End of { name : string; id : int; ts : int; dur : int }

val set_collector : (event -> unit) option -> unit
(** Install (or remove) the collector. At most one is active;
    it is invoked on the emitting domain (no lock is taken around the
    call), so it must synchronise internally. Exceptions it raises are
    swallowed. *)

val collector_active : unit -> bool
