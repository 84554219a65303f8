(** Process runtime telemetry: GC, memory, and uptime as registry gauges.

    [sample] publishes a [Gc.quick_stat] snapshot plus the resident-set
    size into the gauges [runtime.gc.minor_words], [runtime.gc.major_words],
    [runtime.gc.promoted_words], [runtime.gc.heap_words],
    [runtime.gc.top_heap_words], [runtime.gc.compactions],
    [runtime.gc.minor_collections], [runtime.gc.major_collections],
    [runtime.mem.rss_kb] (0 where /proc is unavailable), and
    [runtime.uptime_ms]. Consumers — [/metrics], {!Timeseries},
    [peace watch] — read plain gauges and need not know the source. *)

val sample : unit -> unit
(** Take one snapshot now. Cheap: [Gc.quick_stat], no heap walk. *)

val gauge_names : string list
(** The gauges {!sample} publishes, in a stable order. *)

val track : Timeseries.t -> unit
(** Register every runtime gauge as a probe on the sampler, so each
    {!Timeseries.sample} tick also records the runtime series. *)
