(** Longitudinal telemetry: a clock-driven sampler that snapshots
    registry gauges (or arbitrary probes) into fixed-capacity ring-buffer
    series.

    Point-in-time counters ({!Registry}) answer "how many?"; these series
    answer "how did it evolve?" — queue depth over a simulated hour,
    handshake throughput across a load sweep. A series never exceeds its
    capacity: on overflow, adjacent points merge pairwise (first
    timestamp, mean value) and the per-point stride doubles, trading
    resolution for range instead of truncating history.

    The sampler is clock-agnostic: [now] is any monotone int source.
    Pass wall time (the default) for live processes, or let
    {!Peace_sim.Engine.attach_sampler} rebind it to the simulation clock
    so sampling happens on simulated time. *)

module Series : sig
  type t

  val create : ?capacity:int -> string -> t
  (** Fixed-capacity series (default 256 points; odd capacities round up
      to even so pairwise merging is exact).
      @raise Invalid_argument when [capacity < 2]. *)

  val name : t -> string

  val push : t -> ts:int -> float -> unit
  (** Record one observation. Once the buffer has downsampled, [stride]
      consecutive pushes are averaged into a single stored point. *)

  val points : t -> (int * float) list
  (** Stored [(timestamp, value)] points, chronological. Timestamps are
      monotone when pushes were. *)

  val length : t -> int
  val capacity : t -> int

  val stride : t -> int
  (** Raw pushes per stored point: 1 until the first overflow, then
      doubling on each. *)

  val last : t -> (int * float) option
end

type t
(** A sampler: a clock plus a set of named probes, each feeding a series. *)

val create : ?capacity:int -> ?now:(unit -> int) -> unit -> t
(** [capacity] is per-series (default 256); [now] defaults to the wall
    clock in epoch milliseconds. *)

val set_clock : t -> (unit -> int) -> unit
(** Rebind the time source (how {!Peace_sim.Engine} switches a sampler
    to simulated time). *)

val track : t -> string -> (unit -> float) -> Series.t
(** Register a custom probe, returning its series.
    @raise Invalid_argument on a duplicate series name. *)

val track_gauge : t -> string -> Series.t
(** Probe the registry gauge of that name (created if absent). *)

val sample : t -> unit
(** Read the clock once and push every probe's current value. *)

val sample_count : t -> int
(** Total [sample] calls (raw pushes, not stored points). *)

val series : t -> Series.t list
(** All series, in track order. *)

val to_jsonl : t -> (string -> unit) -> unit
(** One [{"kind":"series",...}] header line per series followed by its
    [{"kind":"sample","series":...,"ts":...,"v":...}] points (no trailing
    newlines). *)
