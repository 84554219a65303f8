(* Runtime telemetry: GC, memory, and process vitals as registry gauges.

   [sample] reads [Gc.quick_stat] (no heap walk — [Gc.stat] forces a
   major slice, far too heavy for a periodic sampler) plus
   /proc/self/statm and publishes the numbers as gauges, so they show up
   in /metrics, in Timeseries samplers, and in `peace watch` deltas
   without any consumer knowing where they came from. The caller owns
   the sampling loop (serve-auth ticks it next to its Timeseries). *)

let started_at = lazy (Registry.now_ns ())

let g_minor_words = Registry.gauge "runtime.gc.minor_words"
let g_major_words = Registry.gauge "runtime.gc.major_words"
let g_promoted_words = Registry.gauge "runtime.gc.promoted_words"
let g_heap_words = Registry.gauge "runtime.gc.heap_words"
let g_top_heap_words = Registry.gauge "runtime.gc.top_heap_words"
let g_compactions = Registry.gauge "runtime.gc.compactions"
let g_minor_collections = Registry.gauge "runtime.gc.minor_collections"
let g_major_collections = Registry.gauge "runtime.gc.major_collections"
let g_rss_kb = Registry.gauge "runtime.mem.rss_kb"
let g_uptime_ms = Registry.gauge "runtime.uptime_ms"

(* VmRSS in kilobytes from /proc/self/statm (second field, pages); 0
   where /proc is unavailable (non-Linux) — absent, not wrong. *)
let rss_kb () =
  try
    let ic = open_in "/proc/self/statm" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match String.split_on_char ' ' (input_line ic) with
        | _ :: resident :: _ ->
          (* statm counts pages; assume the ubiquitous 4 KiB page — the
             stdlib Unix module does not expose sysconf *)
          int_of_string resident * 4
        | _ -> 0)
  with _ -> 0

let sample () =
  ignore (Lazy.force started_at);
  let s = Gc.quick_stat () in
  Registry.Gauge.set g_minor_words (int_of_float s.Gc.minor_words);
  Registry.Gauge.set g_major_words (int_of_float s.Gc.major_words);
  Registry.Gauge.set g_promoted_words (int_of_float s.Gc.promoted_words);
  Registry.Gauge.set g_heap_words s.Gc.heap_words;
  Registry.Gauge.set g_top_heap_words s.Gc.top_heap_words;
  Registry.Gauge.set g_compactions s.Gc.compactions;
  Registry.Gauge.set g_minor_collections s.Gc.minor_collections;
  Registry.Gauge.set g_major_collections s.Gc.major_collections;
  Registry.Gauge.set g_rss_kb (rss_kb ());
  Registry.Gauge.set g_uptime_ms
    ((Registry.now_ns () - Lazy.force started_at) / 1_000_000)

let gauge_names =
  [
    "runtime.gc.minor_words";
    "runtime.gc.major_words";
    "runtime.gc.promoted_words";
    "runtime.gc.heap_words";
    "runtime.gc.top_heap_words";
    "runtime.gc.compactions";
    "runtime.gc.minor_collections";
    "runtime.gc.major_collections";
    "runtime.mem.rss_kb";
    "runtime.uptime_ms";
  ]

let track ts = List.iter (fun n -> ignore (Timeseries.track_gauge ts n)) gauge_names
