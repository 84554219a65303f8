(** Shared socket plumbing for every listener in the tree — the metrics
    endpoint ({!Peace_obs.Serve}) and the authentication authority
    ({!Peace_service.Authority}) harden their sockets through this one
    module, so the two cannot drift:

    - [SIGPIPE] is ignored process-wide before any listen/connect, so a
      peer that disconnects mid-write costs an [EPIPE] result, not the
      process;
    - bind/listen failures ([EADDRINUSE], bad addresses, stale Unix-domain
      paths) come back as [Error] with a human-readable message, never an
      exception;
    - TCP port [0] works: {!listen} reports the kernel-assigned port in
      the resolved address it returns, the [--port 0]-style determinism
      knob every smoke test uses.

    This library depends only on [unix] (it sits {e below} [peace.obs]). *)

type addr =
  | Tcp of string * int  (** host, port (0 = kernel-assigned) *)
  | Unix_path of string  (** Unix-domain socket path *)

val addr_of_string : string -> (addr, string) result
(** Parses ["tcp:HOST:PORT"] and ["unix:PATH"] (and bare ["HOST:PORT"] as
    TCP). *)

val addr_to_string : addr -> string
(** Round-trips with {!addr_of_string}. *)

val ignore_sigpipe : unit -> unit
(** Idempotent; a no-op on platforms without [SIGPIPE]. *)

val listen : addr -> (Unix.file_descr * addr, string) result
(** Bind and listen (backlog 64). Returns the listening socket
    and the {e resolved} address: for [Tcp (host, 0)] the kernel-assigned
    port is filled in. [SO_REUSEADDR] is set on TCP sockets; a leftover
    socket file is unlinked before a Unix-domain bind (listeners own
    their path). All failures are [Error]. *)

val connect : addr -> (Unix.file_descr, string) result

val set_timeout : Unix.file_descr -> float -> unit
(** Receive timeout in seconds ([SO_RCVTIMEO]): blocked reads fail with
    [EAGAIN]/[EWOULDBLOCK] instead of parking forever, which is what lets
    serving loops poll a stop flag. Errors are swallowed (a socket that
    cannot carry the option will simply block). *)

val write_all : Unix.file_descr -> string -> (unit, string) result
(** Writes the whole string, restarting on short writes and [EINTR].
    [EPIPE]/[ECONNRESET] (the peer went away) return [Error]. *)

val read_into :
  Unix.file_descr -> bytes -> int -> int ->
  (int, [ `Timeout | `Err of string ]) result
(** [read_into fd buf off len]: one [Unix.read], [Ok 0] at end-of-file,
    [`Timeout] when an {!set_timeout} deadline fires, [EINTR] restarted. *)

val close_noerr : Unix.file_descr -> unit

val unlink_noerr : string -> unit
(** Remove a Unix-domain socket path, ignoring every failure. *)
