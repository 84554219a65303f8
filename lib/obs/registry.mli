(** Registries of named counters, gauges, and latency histograms.

    The paper's whole evaluation (Section V) is framed as operation counts
    — pairings and exponentiations per sign/verify, revocation cost linear
    in |URL| — so the registry's job is to make those counts (and the
    latencies behind them) observable on the real code paths.

    A registry is a value. Every function that takes [?registry] uses the
    process-wide one when it is omitted; the crypto counters, the
    authority, {!Expo.prometheus} and {!Alert} live there. A simulation
    run creates its own, so its counts never mix with those.

    Record paths are lock-free ([Atomic] only), so the authority's
    connection workers on separate domains can update the same metric
    concurrently; a registry's mutex guards only creation and enumeration.
    Metrics are keyed by name within a registry: [counter "x"] twice
    returns the same counter. *)

type t

val create : unit -> t
(** A new, empty registry, independent of the process-wide one. *)

val now_ns : unit -> int
(** Wall-clock nanoseconds as an int (differences are what matter). *)

module Counter : sig
  type t

  val name : t -> string
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

module Gauge : sig
  type t

  val name : t -> string
  val set : t -> int -> unit
  val add : t -> int -> unit
  val incr : t -> unit
  val decr : t -> unit
  val value : t -> int
  val reset : t -> unit
end

module Histogram : sig
  (** Log-bucketed: an observation of value [v > 0] lands in the bucket of
      its bit-length, so the histogram covers the full int range in 63
      buckets with <2x relative quantile error. *)

  type t

  val name : t -> string

  val observe : t -> int -> unit
  (** Record one observation (nanoseconds for latency histograms, but any
      non-negative integer unit works — e.g. revocation-scan lengths). *)

  val time : t -> (unit -> 'a) -> 'a
  (** [time h f] runs [f] and observes its wall-clock duration in
      nanoseconds. *)

  val count : t -> int
  val sum : t -> int
  val mean : t -> float option

  val quantile : t -> float -> float option
  (** [quantile h p] for [p] in [0..100], [None] on an empty histogram;
      linear interpolation inside the target bucket. *)

  val nbuckets : int

  val bucket_of : int -> int
  (** The bucket index an observation of this value lands in: the value's
      bit-length ([v <= 0] goes to bucket 0), clamped to the last bucket. *)

  val lower_bound : int -> int
  (** Smallest value bucket [i] can hold (0 for bucket 0). *)

  val upper_bound : int -> int
  (** Largest value bucket [i] can hold ([max_int] for the last bucket). *)

  val bucket_counts : t -> int array
  (** Per-bucket observation counts, length {!nbuckets} — the raw
      distribution behind {!quantile}; {!Expo.prometheus} renders it as
      cumulative [_bucket{le=...}] series. *)

  val reset : t -> unit
end

val percentile : float array -> float -> float
(** [percentile sorted p] over exact samples in ascending order: linear
    interpolation between closest ranks (numpy's default), rank
    p/100·(n − 1) with [p] clamped to [0..100]; 0 on an empty array.
    {!Histogram.quantile} is its log-bucketed approximation. *)

val counter :
  ?registry:t -> ?labels:(string * string) list -> string -> Counter.t
(** Get-or-create by name. [labels] adds a label dimension: the metric is
    keyed by the canonical Prometheus-style series name (labels sorted by
    key, values escaped), so the same label set always returns the same
    metric and different label values are independent series — e.g.
    [counter ~labels:["router","r7"] "router.requests_total"]. Base names
    must not contain an opening brace. *)

val gauge : ?registry:t -> ?labels:(string * string) list -> string -> Gauge.t
val histogram :
  ?registry:t -> ?labels:(string * string) list -> string -> Histogram.t

val memo : ('k -> 'm) -> 'k -> 'm
(** [memo make] caches [make key] by key: a repeat lookup is one atomic
    read and a walk over the keys seen so far, instead of the string build
    plus registry mutex a [make] that calls {!counter} or {!histogram}
    pays. Partially apply once at module level and keep the closure — that
    is where the cache lives. Intended for hot paths over a small, stable
    set of keys (error kinds, log levels, span names). *)

val counter_family : label:string -> string -> string -> Counter.t
(** [counter_family ~label name] is [memo] over label values: it maps a
    value to the counter [counter ~labels:[(label, value)] name]. *)

val encode_labels : (string * string) list -> string
(** The canonical label suffix: empty for no labels, else the brace-quoted
    key=value list with keys sorted and values escaped (backslash, double
    quote, and newline, per Prometheus text exposition escaping). *)

val split_name : string -> string * string
(** Splits a registry key into (base name, label suffix): the suffix is
    empty or the full braced part, verbatim as {!encode_labels} built
    it. *)

val counters : ?registry:t -> unit -> (string * int) list
(** Current values, sorted by name. *)

val gauges : ?registry:t -> unit -> (string * int) list
val histograms : ?registry:t -> unit -> (string * Histogram.t) list

val lookup : ?registry:t -> string -> float option
(** Resolve a metric name to one float for rule evaluation ({!Alert}):
    an exact gauge or counter (full series key) wins; otherwise every
    labelled series whose base name matches is summed — counters first,
    then gauges (e.g. [service.errors_total] sums all
    [service.errors_total{kind=...}]); otherwise the count-weighted mean
    of matching histograms. [None] when no metric matches or matching
    histograms hold no observations. A lookup never creates a metric. *)
