(** Simulation metrics: named counters and sample series. *)

type t

val create : unit -> t
val incr : t -> string -> unit
val count : t -> string -> int
val counters : t -> (string * int) list
(** Sorted by name. *)

val sample : t -> string -> float -> unit

val samples : t -> string -> float list
(** All recorded samples in chronological (insertion) order — a
    timeline consumer can pair them with event times. *)

val mean : t -> string -> float option
(** Running mean; O(1) regardless of series length. *)

val percentile : t -> string -> float -> float option
(** [percentile t name 95.0]; [None] when the series is empty. Linear
    interpolation between closest ranks (numpy's default method). The
    ascending sort is cached between samples, so reading several
    percentiles in a row costs one sort, not one per call. *)
