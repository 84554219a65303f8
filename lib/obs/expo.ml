(* Exposition formats: span JSONL, Chrome trace-event JSON (Perfetto),
   folded stacks (flamegraph.pl / speedscope), Prometheus text exposition
   over the registry, and the human renderings (registry summary table,
   sampler sparklines). *)

(* --- event recorder ---

   A tiny collector that keeps the raw Trace events (with the emitting
   domain id) so they can be re-rendered after the run. *)

type recorded = { r_ev : Trace.event; r_dom : int }

type recorder = {
  rec_lock : Mutex.t;
  mutable rec_events : recorded list; (* newest first *)
}

let recorder () = { rec_lock = Mutex.create (); rec_events = [] }

let record r ev =
  Mutex.lock r.rec_lock;
  r.rec_events <- { r_ev = ev; r_dom = (Domain.self () :> int) } :: r.rec_events;
  Mutex.unlock r.rec_lock

let events r =
  Mutex.lock r.rec_lock;
  let evs = r.rec_events in
  Mutex.unlock r.rec_lock;
  List.rev_map (fun { r_ev; r_dom } -> (r_ev, r_dom)) evs

(* --- span JSONL ---

   One JSON object per event, fields in a fixed order, so line-oriented
   tools (grep, the cram tests, watchsmoke.sh) can scan substrings. *)

let opt_field key = function
  | None -> ""
  | Some v -> Printf.sprintf ",%s:%d" (Obs_json.str key) v

let attrs_field = function
  | [] -> ""
  | attrs ->
    let fields =
      List.map (fun (k, v) -> Obs_json.str k ^ ":" ^ Obs_json.str v) attrs
    in
    ",\"attrs\":{" ^ String.concat "," fields ^ "}"

let jsonl = function
  | Trace.Begin { name; id; parent; ts; trace; remote_parent; attrs } ->
    Printf.sprintf
      "{\"ev\":\"B\",\"name\":%s,\"id\":%d,\"parent\":%s,\"ts_ns\":%d%s%s%s}"
      (Obs_json.str name) id
      (match parent with None -> "null" | Some p -> string_of_int p)
      ts
      (opt_field "trace" trace)
      (opt_field "remote_parent" remote_parent)
      (attrs_field attrs)
  | Trace.End { name; id; ts; dur } ->
    Printf.sprintf
      "{\"ev\":\"E\",\"name\":%s,\"id\":%d,\"ts_ns\":%d,\"dur_ns\":%d}"
      (Obs_json.str name) id ts dur

(* the lock serialises writers from concurrent domains, so lines never
   interleave; the line is rendered before the lock is taken *)
let jsonl_to write =
  let lock = Mutex.create () in
  fun ev ->
    let line = jsonl ev in
    Mutex.protect lock (fun () -> write line)

(* --- Chrome trace-event JSON ---

   One "B"/"E" pair per completed span, in emission order (chronological:
   begins are recorded at span start, ends at span finish). Spans without
   a matching end (still open when the recorder detached) are dropped so
   the output always balances. The end event reuses the begin's tid: a
   handle may be finished by another domain, and Chrome pairs B/E per
   (pid, tid). Recorded timestamps are nanoseconds; the format wants
   microseconds. *)

let chrome evs =
  let ends = Hashtbl.create 64 and btid = Hashtbl.create 64 in
  List.iter
    (fun (ev, dom) ->
      match ev with
      | Trace.End { id; _ } -> Hashtbl.replace ends id ()
      | Trace.Begin { id; _ } -> Hashtbl.replace btid id dom)
    evs;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_string buf ",\n "
  in
  let us ts = Printf.sprintf "%.3f" (float_of_int ts /. 1e3) in
  List.iter
    (fun (ev, dom) ->
      match ev with
      | Trace.Begin { name; id; parent; ts; _ } when Hashtbl.mem ends id ->
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"ph\":\"B\",\"name\":%s,\"pid\":1,\"tid\":%d,\"ts\":%s,\"args\":{\"id\":%d%s}}"
             (Obs_json.str name) dom (us ts) id
             (match parent with
             | None -> ""
             | Some p -> Printf.sprintf ",\"parent\":%d" p))
      | Trace.End { name; id; ts; _ } when Hashtbl.mem btid id ->
        sep ();
        Buffer.add_string buf
          (Printf.sprintf
             "{\"ph\":\"E\",\"name\":%s,\"pid\":1,\"tid\":%d,\"ts\":%s}"
             (Obs_json.str name)
             (Hashtbl.find btid id)
             (us ts))
      | _ -> ())
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

(* --- folded stacks ---

   flamegraph.pl input: one line per call-tree path, "a;b;c <self-value>".
   The value is the node's self time in the profile's time unit
   (nanoseconds for wall-clock spans); zero-self nodes are skipped —
   their time is entirely in their children's lines. *)

let folded profile =
  let buf = Buffer.create 1024 in
  let rec walk (n : Profile.node) =
    if n.Profile.self_ns > 0 then
      Buffer.add_string buf
        (Printf.sprintf "%s %d\n"
           (String.concat ";" n.Profile.path)
           n.Profile.self_ns);
    List.iter walk n.Profile.children
  in
  List.iter walk (Profile.roots profile);
  Buffer.contents buf

(* --- Prometheus text exposition ---

   Registry keys are already canonical series names (labels sorted and
   escaped by Registry.encode_labels), so only the base name needs
   sanitising to the [a-zA-Z_:][a-zA-Z0-9_:]* grammar (dots become
   underscores). Series group by family so each # TYPE line appears
   once. *)

let sanitize_base name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let family prefix full =
  let base, labels = Registry.split_name full in
  (prefix ^ sanitize_base base, labels)

(* group a sorted (full-name, v) list into (family, (labels, v) list)
   pairs, families sorted — label variants of one base can be separated
   by other names in raw sort order, so group via an intermediate table *)
let by_family prefix series =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (full, v) ->
      let fam, labels = family prefix full in
      let prev = Option.value ~default:[] (Hashtbl.find_opt tbl fam) in
      Hashtbl.replace tbl fam ((labels, v) :: prev))
    series;
  Hashtbl.fold
    (fun fam rows acc ->
      (fam, List.sort (fun (a, _) (b, _) -> compare a b) rows) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* merge an extra label into a stored "{...}" suffix (histogram [le]) *)
let with_label labels extra =
  if labels = "" then "{" ^ extra ^ "}"
  else
    "{"
    ^ String.sub labels 1 (String.length labels - 2)
    ^ "," ^ extra ^ "}"

let prometheus () =
  let prefix = "peace_" in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let simple kind series =
    List.iter
      (fun (fam, rows) ->
        add "# TYPE %s %s\n" fam kind;
        List.iter (fun (labels, v) -> add "%s%s %d\n" fam labels v) rows)
      (by_family prefix series)
  in
  simple "counter" (Registry.counters ());
  simple "gauge" (Registry.gauges ());
  let hists =
    List.filter
      (fun (_, h) -> Registry.Histogram.count h > 0)
      (Registry.histograms ())
  in
  List.iter
    (fun (fam, rows) ->
      add "# TYPE %s histogram\n" fam;
      List.iter
        (fun (labels, h) ->
          let counts = Registry.Histogram.bucket_counts h in
          let top = ref (-1) in
          Array.iteri (fun i c -> if c > 0 then top := i) counts;
          let cum = ref 0 in
          for i = 0 to Stdlib.min !top (Registry.Histogram.nbuckets - 2) do
            cum := !cum + counts.(i);
            add "%s_bucket%s %d\n" fam
              (with_label labels
                 (Printf.sprintf "le=\"%d\"" (Registry.Histogram.upper_bound i)))
              !cum
          done;
          add "%s_bucket%s %d\n" fam
            (with_label labels "le=\"+Inf\"")
            (Registry.Histogram.count h);
          add "%s_sum%s %d\n" fam labels (Registry.Histogram.sum h);
          add "%s_count%s %d\n" fam labels (Registry.Histogram.count h))
        rows)
    (by_family prefix hists);
  Buffer.contents buf

(* --- human summary of the registry --- *)

let is_ns name =
  let n = String.length name in
  n >= 3 && String.sub name (n - 3) 3 = "_ns"

let ms ns = float_of_int ns /. 1e6

let summary fmt =
  let counters = Registry.counters () in
  let gauges = Registry.gauges () in
  let histograms = Registry.histograms () in
  if counters <> [] then begin
    Format.fprintf fmt "counters:@.";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  %-32s %d@." name v)
      counters
  end;
  if gauges <> [] then begin
    Format.fprintf fmt "gauges:@.";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "  %-32s %d@." name v)
      gauges
  end;
  let live = List.filter (fun (_, h) -> Registry.Histogram.count h > 0) histograms in
  if live <> [] then begin
    Format.fprintf fmt "histograms:@.";
    List.iter
      (fun (name, h) ->
        let n = Registry.Histogram.count h in
        let mean = Option.value ~default:0.0 (Registry.Histogram.mean h) in
        let p50 = Option.value ~default:0.0 (Registry.Histogram.quantile h 50.0) in
        let p95 = Option.value ~default:0.0 (Registry.Histogram.quantile h 95.0) in
        if is_ns name then
          Format.fprintf fmt
            "  %-32s n=%-6d mean=%.3fms p50~%.3fms p95~%.3fms@." name n
            (ms (int_of_float mean)) (ms (int_of_float p50))
            (ms (int_of_float p95))
        else
          Format.fprintf fmt "  %-32s n=%-6d mean=%.2f p50~%.1f p95~%.1f@."
            name n mean p50 p95)
      live
  end;
  if counters = [] && gauges = [] && live = [] then
    Format.fprintf fmt "(no metrics recorded)@."

(* --- time-series rendering --- *)

let spark_blocks = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |]

let sparkline ?(width = 40) points =
  match points with
  | [] -> ""
  | points ->
    let values = List.map snd points in
    let lo = List.fold_left Float.min (List.hd values) values in
    let hi = List.fold_left Float.max (List.hd values) values in
    let n = List.length values in
    let width = Stdlib.min width n in
    (* resample to [width] columns: each column is the mean of its slice *)
    let sums = Array.make width 0.0 and counts = Array.make width 0 in
    List.iteri
      (fun i v ->
        let col = Stdlib.min (width - 1) (i * width / n) in
        sums.(col) <- sums.(col) +. v;
        counts.(col) <- counts.(col) + 1)
      values;
    let buf = Buffer.create (3 * width) in
    for col = 0 to width - 1 do
      if counts.(col) > 0 then begin
        let v = sums.(col) /. float_of_int counts.(col) in
        let level =
          if hi -. lo <= 0.0 then 3
          else
            Stdlib.min 7
              (int_of_float ((v -. lo) /. (hi -. lo) *. 8.0))
        in
        Buffer.add_string buf spark_blocks.(level)
      end
    done;
    Buffer.contents buf

let series_summary fmt sampler =
  let all = Timeseries.series sampler in
  let live = List.filter (fun s -> Timeseries.Series.length s > 0) all in
  if live = [] then Format.fprintf fmt "(no series sampled)@."
  else
    List.iter
      (fun s ->
        let points = Timeseries.Series.points s in
        let values = List.map snd points in
        let lo = List.fold_left Float.min (List.hd values) values in
        let hi = List.fold_left Float.max (List.hd values) values in
        let last = List.nth values (List.length values - 1) in
        Format.fprintf fmt "  %-28s %s  min=%g max=%g last=%g n=%d/%d@."
          (Timeseries.Series.name s)
          (sparkline points) lo hi last
          (Timeseries.Series.length s)
          (Timeseries.Series.stride s * Timeseries.Series.length s))
      live
