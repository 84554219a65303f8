(** The authority's frame protocol: every message on a connection is one
    length-prefixed frame

    {v u32 length | u8 tag | payload (length - 1 bytes) v}

    reusing {!Peace_core.Wire} for the integers, so both ends share the
    simulator's codec. The request payloads are the PEACE protocol
    messages serialised by {!Peace_core.Messages} — the server terminates
    {e real} (M.1)/(M.2)/(M.3) exchanges, not a mock.

    One request frame always produces exactly one response frame, so a
    client may pipeline. A frame that fails to parse at this layer is not
    recoverable (the stream has lost sync) and the server closes the
    connection after counting it; a payload that fails to parse one layer
    up ({!Peace_core.Messages} decoders) is answered with {!Rejected} and
    the connection continues. *)

(** Frame tags. Requests are client->server; responses server->client. *)
type tag =
  | Get_beacon  (** request the router's current (M.1); empty payload *)
  | Access  (** payload: (M.2) access request bytes *)
  | Ping  (** liveness probe; empty payload *)
  | Traced
      (** a request wrapped with a trace context; payload:
          [u8 version | u64 trace | u32 parent | u8 inner tag | inner payload].
          See {!wrap_traced}. *)
  | Beacon  (** payload: (M.1) beacon bytes *)
  | Confirm  (** payload: (M.3) access confirm bytes *)
  | Rejected  (** payload: u8 error code ++ length-prefixed detail string *)
  | Pong

val tag_to_int : tag -> int

val max_frame : int
(** Upper bound on [length] (4 MiB): a lying length prefix cannot make the
    server allocate without bound. *)

val write : Unix.file_descr -> tag -> string -> (unit, string) result

val read :
  Unix.file_descr ->
  (tag * string, [ `Eof | `Timeout | `Err of string ]) result
(** Blocking read of one frame. [`Eof] only at a clean frame boundary —
    end-of-file mid-frame is [`Err "truncated frame"], which is how a
    deliberately truncated frame from the load generator shows up in the
    server's error counters. [`Timeout] surfaces an {!Peace_sock.set_timeout}
    deadline with no bytes consumed, so the read can simply be retried. *)

(** {1 Trace context envelopes}

    Distributed tracing rides the existing frame shape: a {!Traced} frame
    wraps any ordinary request together with (u64 trace id, u32 parent
    span id), so the authority can continue the client's trace
    ({!Peace_obs.Trace.start_remote}). Compatibility is by tag, not by
    format change: an old server rejects the unknown tag the way it
    rejects any foreign byte, and every existing frame is byte-identical
    to before. The envelope carries its own version byte so the context
    can grow without burning another tag. *)

type trace_ctx = {
  tc_trace : int;  (** u64 trace id (62-bit in practice) *)
  tc_parent : int;  (** client-side parent span id, masked to 32 bits *)
}

val wrap_traced : ctx:trace_ctx -> tag -> string -> string
(** The {!Traced} payload carrying [ctx] around an inner request frame.
    Send with [write fd Traced (wrap_traced ~ctx tag payload)]. *)

val unwrap_traced : string -> (tag * string * trace_ctx, string) result
(** Decode a {!Traced} payload. Errors (unsupported version, unknown or
    nested inner tag, truncation) are payload-level: the server answers
    {!Rejected} and keeps the connection. *)

(** {1 Rejection payloads} *)

val error_code : Peace_core.Protocol_error.t -> int
(** Stable wire code for each protocol error class (1..14; 0 is reserved
    for transport-level problems reported as {!Rejected} frames). *)

val error_name : int -> string
(** Human-readable name for a wire code (["?"] when unknown). *)

val rejected_payload : code:int -> detail:string -> string
val parse_rejected : string -> (int * string) option
