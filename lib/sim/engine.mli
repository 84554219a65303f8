(** The discrete-event simulation engine.

    Owns a manual {!Peace_core.Clock.t} that it advances to each event's
    timestamp, so every PEACE entity driven from event handlers sees
    consistent simulated time (timestamps, certificate expiry, CRL
    periods). *)

open Peace_core

type t

val create : ?start:int -> unit -> t
val clock : t -> Clock.t
val now : t -> int

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** Enqueues a handler [delay] ms after the current time ([delay >= 0]). *)

val schedule_at : t -> time:int -> (unit -> unit) -> unit

val schedule_every : t -> period:int -> ?until:int -> (unit -> unit) -> unit
(** Periodic task starting one period from now. *)

val run : ?until:int -> t -> unit
(** Processes events in timestamp order until the queue drains or the
    horizon is crossed (events beyond [until] stay queued). *)

val pending : t -> int

val attach_sampler :
  t -> period:int -> ?until:int -> Peace_obs.Timeseries.t -> unit
(** Drive a {!Peace_obs.Timeseries} sampler on simulated time: rebinds
    its clock to this engine's, takes one sample immediately, then one
    every [period] simulated ms (until [until], if given) while {!run}
    processes events. Timeline timestamps come out in simulated ms. *)
