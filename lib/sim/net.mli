(** The radio network model: positioned nodes, distance-dependent latency,
    byte accounting, and the channel faults of an optional {!Faults.link}.

    Payloads are the real serialised protocol messages, so the simulator
    exercises the same wire formats the paper's message-size analysis
    counts. *)

type address = int

type t

val create : Engine.t -> ?faults:Faults.link -> unit -> t
(** Links take 2 ms plus 0.01 ms/m (propagation and forwarding); no loss
    by default. [faults] routes every transmitted frame through a
    {!Faults.link} (loss, duplication, reordering, corruption), which
    counts what it did. *)

val register :
  t -> address -> pos:float * float -> ?tx_range:float -> (string -> unit) ->
  unit
(** Adds a node with a receive handler and an optional transmit range
    (default unlimited) — the paper's asymmetric link budget: routers
    reach their whole cell, users only their neighbourhood.
    Re-registering replaces everything. *)

val unregister : t -> address -> unit
val move : t -> address -> float * float -> unit

val send : t -> src:address -> dst:address -> string -> unit
(** Delivers (unless lost) after the link latency. Frames to or from
    unregistered nodes (crashed or departed) are dropped and counted in
    {!frames_dropped_unknown}. *)

val broadcast : t -> src:address -> range:float -> string -> unit
(** Delivers to every registered node within [range] metres of [src]
    (except itself). *)

val bytes_sent : t -> int
(** Total bytes put on the air (including lost frames). *)

val frames_out_of_range : t -> int
(** Unicasts dropped because the destination exceeded the sender's
    transmit range. *)

val frames_dropped_unknown : t -> int
(** Frames dropped because an endpoint was not registered — at send time
    (sender or destination already gone) or at delivery time (destination
    left mid-flight). Mirrored by the [sim.net.dropped_unknown] registry
    counter so departed-node traffic shows up in reports. *)
