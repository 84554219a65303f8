(** Exposition formats over the span stream and the registry: span JSONL,
    Chrome trace-event JSON (load in Perfetto / [chrome://tracing]), folded
    stacks ([flamegraph.pl] / speedscope), the Prometheus text
    exposition {!Serve} publishes on [/metrics], and the human renderings
    [peace stats] and [peace simulate --timeline] print. *)

(** {1 Recording the span stream} *)

type recorder
(** Keeps raw {!Trace.event}s (with the emitting domain id) for
    re-rendering after the run. *)

val recorder : unit -> recorder

val record : recorder -> Trace.event -> unit
(** The collector function — install with
    [Trace.set_collector (Some (Expo.record r))]. Thread-safe. *)

val events : recorder -> (Trace.event * int) list
(** Recorded events in emission (chronological) order, each with the
    domain that emitted it. *)

(** {1 Renderers} *)

val jsonl : Trace.event -> string
(** One event as one JSON object, without a trailing newline, fields in a
    fixed order:

    {v
    {"ev":"B","name":"groupsig.verify","id":5,"parent":2,"ts_ns":...}
    {"ev":"E","name":"groupsig.verify","id":5,"ts_ns":...,"dur_ns":...}
    v}

    [parent] is [null] for a root span; a begin carries [trace],
    [remote_parent] and an [attrs] object only when the span has them. *)

val jsonl_to : (string -> unit) -> Trace.event -> unit
(** [jsonl_to write] is a collector that passes each event's {!jsonl}
    line to [write]. Calls to [write] are serialised under a lock, so
    lines from concurrent domains never interleave. *)

val chrome : (Trace.event * int) list -> string
(** Chrome trace-event JSON: one ["ph":"B"]/["ph":"E"] pair per completed
    span ([tid] = emitting domain; unmatched begins are dropped so pairs
    always balance). Recorded timestamps are read as nanoseconds and
    written as the microseconds the format wants. *)

val folded : Profile.t -> string
(** Folded stacks: one ["root;child;leaf <self>"] line per call-tree path
    with non-zero self time, value in the profile's time unit. *)

val prometheus : unit -> string
(** The whole registry in Prometheus text exposition format. Base metric
    names are sanitised to the exposition grammar (dots -> underscores)
    and prefixed with ["peace_"]; label suffixes are emitted as
    stored ({!Registry.encode_labels} already escapes values). Histograms
    render as cumulative [_bucket{le="..."}] series over the log-bucket
    upper bounds, plus [_sum] and [_count]. *)

(** {1 Human renderings} *)

val summary : Format.formatter -> unit
(** Human-readable dump: counters, gauges, then non-empty histograms.
    Histogram names ending in [_ns] are rendered in milliseconds. *)

val sparkline : ?width:int -> (int * float) list -> string
(** Render [(ts, value)] points as a Unicode block sparkline (▁▂…█),
    resampled to at most [width] columns (default 40, mean per column).
    A constant series renders at mid height; empty input is [""]. *)

val series_summary : Format.formatter -> Timeseries.t -> unit
(** One line per non-empty series of the sampler: name, sparkline,
    min/max/last, and stored-out-of-raw point counts. *)
