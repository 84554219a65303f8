(* Peace_obs tests: lock-free metric semantics (including exactness under
   concurrent domains), span nesting and JSONL trace well-formedness,
   registry enumeration, and the exporters. *)

module R = Peace_obs.Registry
module Trace = Peace_obs.Trace
module Expo = Peace_obs.Expo

(* --- tiny fixed-field JSONL scanner (the trace emitter writes fields in
   a fixed order, so substring scanning is enough for tests) --- *)

let after line pat =
  let n = String.length pat in
  let rec find i =
    if i + n > String.length line then None
    else if String.sub line i n = pat then Some (i + n)
    else find (i + 1)
  in
  find 0

let int_field line key =
  match after line ("\"" ^ key ^ "\":") with
  | None -> None
  | Some i ->
    let j = ref i in
    while
      !j < String.length line
      && (match line.[!j] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr j
    done;
    if !j = i then None else Some (int_of_string (String.sub line i (!j - i)))

let str_field line key =
  match after line ("\"" ^ key ^ "\":\"") with
  | None -> None
  | Some i -> (
    match String.index_from_opt line i '"' with
    | None -> None
    | Some j -> Some (String.sub line i (j - i)))

(* --- counters, gauges, histograms --- *)

let test_counter_basics () =
  let c = R.counter "test.obs.counter" in
  R.Counter.reset c;
  Alcotest.(check string) "name" "test.obs.counter" (R.Counter.name c);
  R.Counter.incr c;
  R.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (R.Counter.value c);
  Alcotest.(check bool) "get-or-create returns the same counter" true
    (R.counter "test.obs.counter" == c);
  R.Counter.reset c;
  Alcotest.(check int) "reset" 0 (R.Counter.value c)

let test_counter_concurrent () =
  (* exactness, not just absence of crashes: with plain int refs this test
     loses increments; Atomic must account for every single one *)
  let c = R.counter "test.obs.concurrent" in
  R.Counter.reset c;
  let domains = 4 and per_domain = 25_000 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              R.Counter.incr c
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no lost updates" (domains * per_domain) (R.Counter.value c)

let test_gauge () =
  let g = R.gauge "test.obs.gauge" in
  R.Gauge.reset g;
  R.Gauge.set g 7;
  R.Gauge.incr g;
  R.Gauge.decr g;
  R.Gauge.add g 3;
  Alcotest.(check int) "set/incr/decr/add" 10 (R.Gauge.value g);
  R.Gauge.reset g;
  Alcotest.(check int) "reset" 0 (R.Gauge.value g)

let test_histogram () =
  let h = R.histogram "test.obs.hist" in
  R.Histogram.reset h;
  Alcotest.(check (option (float 0.0))) "empty quantile" None (R.Histogram.quantile h 50.0);
  Alcotest.(check (option (float 0.0))) "empty mean" None (R.Histogram.mean h);
  (* value 1 lands in a single-value bucket [1,1]: quantiles are exact *)
  for _ = 1 to 5 do
    R.Histogram.observe h 1
  done;
  Alcotest.(check int) "count" 5 (R.Histogram.count h);
  Alcotest.(check int) "sum" 5 (R.Histogram.sum h);
  Alcotest.(check (option (float 1e-9))) "exact p50 in a unit bucket" (Some 1.0)
    (R.Histogram.quantile h 50.0);
  (* log-bucketing: 6 is in bucket [4,7]; any quantile stays in-bucket *)
  R.Histogram.reset h;
  for _ = 1 to 10 do
    R.Histogram.observe h 6
  done;
  (match R.Histogram.quantile h 95.0 with
  | None -> Alcotest.fail "no quantile"
  | Some q ->
    Alcotest.(check bool) "p95 within the value's bucket" true (q >= 4.0 && q <= 7.0));
  Alcotest.(check (option (float 1e-9))) "mean is exact" (Some 6.0) (R.Histogram.mean h);
  (* time observes a positive duration *)
  R.Histogram.reset h;
  let v = R.Histogram.time h (fun () -> 13) in
  Alcotest.(check int) "time passes the result through" 13 v;
  Alcotest.(check int) "time observed once" 1 (R.Histogram.count h)

let test_registry_enumeration_and_delta () =
  let c1 = R.counter "test.obs.enum_a" and c2 = R.counter "test.obs.enum_b" in
  R.Counter.reset c1;
  R.Counter.reset c2;
  let before = R.counters () in
  Alcotest.(check bool) "enumeration is sorted" true
    (before = List.sort compare before);
  R.Counter.add c1 3;
  let after = R.counters () in
  let moved =
    List.filter_map
      (fun (name, v) ->
        let b = Option.value ~default:0 (List.assoc_opt name before) in
        if v = b then None else Some (name, v - b))
      after
  in
  Alcotest.(check (list (pair string int))) "two enumerations differ by the movement"
    [ ("test.obs.enum_a", 3) ]
    (List.filter (fun (n, _) -> String.length n >= 13 && String.sub n 0 13 = "test.obs.enum") moved)

(* a registry value shares nothing with the process-wide one: neither
   sees the other's series, even under the same name *)
let test_registry_values_independent () =
  let run = R.create () in
  R.Counter.add (R.counter ~registry:run "test.obs.indep_run") 3;
  R.Gauge.set (R.gauge ~registry:run "test.obs.indep_run_gauge") 4;
  R.Histogram.observe (R.histogram ~registry:run "test.obs.indep_run_hist") 5;
  R.Counter.add (R.counter ~registry:run "test.obs.indep_both") 1;
  R.Counter.add (R.counter "test.obs.indep_global") 2;
  R.Counter.add (R.counter "test.obs.indep_both") 10;
  let names l = List.map fst l in
  let in_process l = List.filter (fun n -> List.mem n (names l)) in
  Alcotest.(check (list string)) "process-wide enumerations hold no run series"
    []
    (in_process (R.counters ()) [ "test.obs.indep_run" ]
    @ in_process (R.gauges ()) [ "test.obs.indep_run_gauge" ]
    @ in_process (R.histograms ()) [ "test.obs.indep_run_hist" ]);
  Alcotest.(check (option (float 0.0))) "process-wide lookup: run counter"
    None (R.lookup "test.obs.indep_run");
  Alcotest.(check (option (float 0.0))) "process-wide lookup: run histogram"
    None (R.lookup "test.obs.indep_run_hist");
  Alcotest.(check (option (float 0.0))) "process-wide lookup: same name"
    (Some 10.0) (R.lookup "test.obs.indep_both");
  let prom = Expo.prometheus () in
  let has sub =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length prom && (String.sub prom i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "/metrics shows the process-wide series" true
    (has "peace_test_obs_indep_global 2\n" && has "peace_test_obs_indep_both 10\n");
  Alcotest.(check bool) "/metrics shows no run series" false
    (has "indep_run" || has "peace_test_obs_indep_both 1\n");
  Alcotest.(check (list (pair string int))) "the run sees only its own counters"
    [ ("test.obs.indep_both", 1); ("test.obs.indep_run", 3) ]
    (R.counters ~registry:run ());
  Alcotest.(check (option (float 0.0))) "run lookup: process-wide counter"
    None (R.lookup ~registry:run "test.obs.indep_global");
  Alcotest.(check (option (float 0.0))) "run lookup: same name" (Some 1.0)
    (R.lookup ~registry:run "test.obs.indep_both")

(* --- spans --- *)

let capture_spans f =
  let lines = ref [] in
  Trace.set_collector (Some (Expo.jsonl_to (fun l -> lines := l :: !lines)));
  Fun.protect ~finally:(fun () -> Trace.set_collector None) f;
  List.rev !lines

let test_span_nesting () =
  Alcotest.(check (option int)) "no open span" None (Trace.current_span ());
  let inner_parent = ref None in
  let lines =
    capture_spans (fun () ->
        Trace.with_span "outer" (fun () ->
            Trace.with_span "inner" (fun () ->
                inner_parent := Trace.current_span ();
                ())))
  in
  (match lines with
  | [ b_outer; b_inner; e_inner; e_outer ] ->
    Alcotest.(check (option string)) "B outer" (Some "outer") (str_field b_outer "name");
    Alcotest.(check (option string)) "B inner" (Some "inner") (str_field b_inner "name");
    Alcotest.(check (option string)) "E inner first" (Some "inner") (str_field e_inner "name");
    Alcotest.(check (option string)) "E outer last" (Some "outer") (str_field e_outer "name");
    Alcotest.(check bool) "outer is a root span" true
      (after b_outer "\"parent\":null" <> None);
    let outer_id = int_field b_outer "id" in
    Alcotest.(check (option int)) "inner's parent is outer" outer_id
      (int_field b_inner "parent");
    Alcotest.(check (option int)) "current_span inside = innermost id"
      (int_field b_inner "id") !inner_parent;
    Alcotest.(check bool) "E carries a non-negative duration" true
      (match int_field e_inner "dur_ns" with Some d -> d >= 0 | None -> false)
  | l -> Alcotest.failf "expected 4 events, got %d" (List.length l));
  Alcotest.(check (option int)) "stack unwound" None (Trace.current_span ())

let test_span_histogram_and_exceptions () =
  let h = R.histogram "test.obs.boom_ns" in
  R.Histogram.reset h;
  let lines =
    capture_spans (fun () ->
        try Trace.with_span "test.obs.boom" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  Alcotest.(check int) "B and E emitted despite the raise" 2 (List.length lines);
  Alcotest.(check int) "duration recorded despite the raise" 1 (R.Histogram.count h)

(* with no collector installed, a span still times into its histogram and
   still nests *)
let test_span_histogram_without_collector () =
  Alcotest.(check bool) "no collector installed" false (Trace.collector_active ());
  let h = R.histogram "test.obs.bare_ns" in
  R.Histogram.reset h;
  let inner =
    Trace.with_span "test.obs.bare" (fun () ->
        let outer = Trace.current_span () in
        Trace.with_span "test.obs.bare" (fun () ->
            (outer, Trace.current_span ())))
  in
  (match inner with
  | Some outer, Some nested ->
    Alcotest.(check bool) "nested span has its own id" true (outer <> nested)
  | _ -> Alcotest.fail "span not on the stack");
  Alcotest.(check (option int)) "stack empty afterwards" None (Trace.current_span ());
  Alcotest.(check int) "both spans timed" 2 (R.Histogram.count h);
  (try Trace.with_span "test.obs.bare" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "timed despite the raise" 3 (R.Histogram.count h)

let test_span_attrs_escaping () =
  let lines =
    capture_spans (fun () ->
        Trace.with_span ~attrs:[ ("msg", "a\"b\\c\nd") ] "test.obs.attrs" Fun.id)
  in
  let b = List.hd lines in
  Alcotest.(check bool) "quote escaped" true (after b "a\\\"b" <> None);
  Alcotest.(check bool) "newline escaped, line unbroken" true
    (not (String.contains b '\n'))

(* --- exporters --- *)

let test_summary () =
  let c = R.counter "test.obs.export" in
  R.Counter.reset c;
  R.Counter.add c 9;
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Expo.summary fmt;
  Format.pp_print_flush fmt ();
  let text = Buffer.contents buf in
  Alcotest.(check bool) "summary names the counter" true
    (after text "test.obs.export" <> None)

let test_json_escape () =
  Alcotest.(check string) "specials escaped" "a\\\"b\\\\c\\nd\\te"
    (Peace_obs.Obs_json.escape "a\"b\\c\nd\te");
  Alcotest.(check string) "control chars as \\u" "\\u0001"
    (Peace_obs.Obs_json.escape "\001");
  Alcotest.(check string) "str wraps in quotes" "\"x\"" (Peace_obs.Obs_json.str "x")

(* --- JSON value round-trip --- *)

module J = Peace_obs.Obs_json

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("schema", J.Num 1.0);
        ("rev", J.Str "a\"b\\c\nd");
        ("ok", J.Bool true);
        ("none", J.Null);
        ("results", J.Arr [ J.Num 42.0; J.Num 1.5; J.Num (-3.25) ]);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "parse (to_string v) = v" true (v = v')
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e);
  (match J.parse "{\"a\": [1, 2.5e1, \"\\u0041\"], \"b\": null}" with
  | Ok j ->
    Alcotest.(check (option (float 1e-9))) "exponent" (Some 25.0)
      (Option.bind (J.member "a" j) (fun a ->
           match J.to_list a with
           | Some (_ :: x :: _) -> J.to_float x
           | _ -> None));
    Alcotest.(check bool) "\\u0041 decodes to A" true
      (match J.member "a" j with
      | Some (J.Arr [ _; _; J.Str "A" ]) -> true
      | _ -> false)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  Alcotest.(check bool) "trailing garbage rejected" true
    (match J.parse "{} x" with Error _ -> true | Ok _ -> false);
  Alcotest.(check bool) "unterminated string rejected" true
    (match J.parse "\"abc" with Error _ -> true | Ok _ -> false);
  Alcotest.(check string) "integral floats print without fraction" "149"
    (J.num_to_string 149.0)

(* the document the bench harness and [Slo.bench_json] write, read back the
   way bench-report reads it *)
let test_results_document () =
  let rows =
    [
      ("e4.micro.mont-mul_ms", "ms", 0.000512, "lower");
      ("e16.closed.throughput_rps", "ops", 409.0, "higher");
      ("e9.\"quoted\"\\name", "count", -3.25, "lower");
    ]
  in
  let text = J.results_document ~rev:"r1" ~date:"fixed" rows in
  Alcotest.(check bool) "one trailing newline" true
    (String.length text > 0
    && text.[String.length text - 1] = '\n'
    && not (String.contains (String.sub text 0 (String.length text - 1)) '\n'));
  match J.parse (String.trim text) with
  | Error e -> Alcotest.failf "results document does not parse: %s" e
  | Ok j ->
    Alcotest.(check (option (float 0.0))) "schema 1" (Some 1.0)
      (Option.bind (J.member "schema" j) J.to_float);
    Alcotest.(check (option string)) "rev" (Some "r1")
      (Option.bind (J.member "rev" j) J.to_str);
    Alcotest.(check (option string)) "date" (Some "fixed")
      (Option.bind (J.member "date" j) J.to_str);
    let field key r = Option.bind (J.member key r) J.to_str in
    let back =
      match Option.bind (J.member "results" j) J.to_list with
      | None -> Alcotest.fail "no results array"
      | Some rs ->
        List.map
          (fun r ->
            match
              ( field "name" r,
                field "unit" r,
                Option.bind (J.member "value" r) J.to_float,
                field "better" r )
            with
            | Some n, Some u, Some v, Some b -> (n, u, v, b)
            | _ -> Alcotest.fail "a result lacks a field")
          rs
    in
    Alcotest.(check (list (pair string (pair string (pair (float 0.0) string)))))
      "the same rows, in order"
      (List.map (fun (n, u, v, b) -> (n, (u, (v, b)))) rows)
      (List.map (fun (n, u, v, b) -> (n, (u, (v, b)))) back)

(* --- time series --- *)

module Ts = Peace_obs.Timeseries

let test_series_wraparound () =
  let s = Ts.Series.create ~capacity:8 "test.series" in
  for i = 0 to 7 do
    Ts.Series.push s ~ts:i (float_of_int i)
  done;
  Alcotest.(check int) "full at capacity" 8 (Ts.Series.length s);
  Alcotest.(check int) "stride 1 before overflow" 1 (Ts.Series.stride s);
  (* the 9th push forces a pairwise merge: 8 points -> 4, stride 2 *)
  Ts.Series.push s ~ts:8 8.0;
  Alcotest.(check int) "stride doubles on overflow" 2 (Ts.Series.stride s);
  let pts = Ts.Series.points s in
  (match pts with
  | (t0, v0) :: _ ->
    Alcotest.(check int) "first timestamp preserved" 0 t0;
    Alcotest.(check (float 1e-9)) "merged value is the pair mean" 0.5 v0
  | [] -> Alcotest.fail "empty after downsample");
  (* push enough to overflow again: range keeps covering ts 0..N *)
  for i = 9 to 40 do
    Ts.Series.push s ~ts:i (float_of_int i)
  done;
  let pts = Ts.Series.points s in
  Alcotest.(check bool) "never exceeds capacity" true (List.length pts <= 8);
  Alcotest.(check bool) "timestamps monotone" true
    (let rec mono = function
       | (a, _) :: ((b, _) :: _ as rest) -> a <= b && mono rest
       | _ -> true
     in
     mono pts);
  Alcotest.(check int) "history starts at the oldest push" 0 (fst (List.hd pts));
  Alcotest.(check bool) "odd capacity rounds up, tiny raises" true
    (Ts.Series.capacity (Ts.Series.create ~capacity:5 "odd") = 6
    && match Ts.Series.create ~capacity:1 "nope" with
       | exception Invalid_argument _ -> true
       | _ -> false)

let test_sampler_clock_and_export () =
  let t = ref 100 in
  let sampler = Ts.create ~capacity:8 ~now:(fun () -> !t) () in
  let v = ref 0.0 in
  let series = Ts.track sampler "test.sampler.v" (fun () -> !v) in
  Alcotest.(check bool) "duplicate name raises" true
    (match Ts.track sampler "test.sampler.v" (fun () -> 0.0) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  for i = 1 to 3 do
    v := float_of_int (10 * i);
    Ts.sample sampler;
    t := !t + 50
  done;
  Alcotest.(check int) "three samples" 3 (Ts.sample_count sampler);
  Alcotest.(check
              (list (pair int (float 1e-9))))
    "points carry the injected clock"
    [ (100, 10.0); (150, 20.0); (200, 30.0) ]
    (Ts.Series.points series);
  (* rebinding the clock affects subsequent samples *)
  Ts.set_clock sampler (fun () -> 9_999);
  v := 40.0;
  Ts.sample sampler;
  Alcotest.(check (option (pair int (float 1e-9)))) "set_clock rebinds"
    (Some (9_999, 40.0))
    (Ts.Series.last series);
  let jsonl = ref [] in
  Ts.to_jsonl sampler (fun l -> jsonl := l :: !jsonl);
  let jsonl = List.rev !jsonl in
  Alcotest.(check int) "header + one line per point" 5 (List.length jsonl);
  List.iter
    (fun l ->
      Alcotest.(check bool) "jsonl lines parse" true
        (match J.parse l with Ok _ -> true | Error _ -> false))
    jsonl

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Expo.sparkline []);
  let line =
    Expo.sparkline ~width:8
      (List.init 8 (fun i -> (i, float_of_int i)))
  in
  Alcotest.(check bool) "ramp ends on the tallest block" true
    (String.length line >= 3
    && String.sub line (String.length line - 3) 3 = "█")

(* --- explicit span handles --- *)

let test_span_handles () =
  let lines =
    capture_spans (fun () ->
        let root = Trace.start ~ts:1_000 "h.root" in
        let child = Trace.start_linked ~ts:1_010 ~parent:root "h.child" in
        (* cross-entity stitching: only the integer id travels *)
        let remote = Trace.start ~parent:(Trace.id root) ~ts:1_020 "h.remote" in
        Trace.finish ~ts:1_040 remote;
        Trace.finish ~ts:1_050 child;
        Trace.finish ~ts:1_050 child;
        (* idempotent *)
        Trace.finish ~ts:1_060 root)
  in
  Alcotest.(check int) "3 B + 3 E (double finish is a no-op)" 6
    (List.length lines);
  let b name =
    List.find (fun l -> str_field l "name" = Some name && after l "\"ev\":\"B\"" <> None) lines
  in
  let root_id = int_field (b "h.root") "id" in
  Alcotest.(check bool) "root is parentless" true
    (after (b "h.root") "\"parent\":null" <> None);
  Alcotest.(check (option int)) "start_linked parents on the handle" root_id
    (int_field (b "h.child") "parent");
  Alcotest.(check (option int)) "start ~parent:(id ...) stitches" root_id
    (int_field (b "h.remote") "parent");
  Alcotest.(check (option int)) "ts override rides into the event"
    (Some 1_000)
    (int_field (b "h.root") "ts_ns");
  let e_root =
    List.find
      (fun l -> str_field l "name" = Some "h.root" && after l "\"ev\":\"E\"" <> None)
      lines
  in
  Alcotest.(check (option int)) "duration in the caller's time base"
    (Some 60) (int_field e_root "dur_ns")

(* --- labeled metrics --- *)

let test_labels () =
  let c = R.counter ~labels:[ ("b", "2"); ("a", "1") ] "test.obs.lab" in
  R.Counter.reset c;
  R.Counter.add c 5;
  Alcotest.(check bool) "label order is canonicalised" true
    (R.counter ~labels:[ ("a", "1"); ("b", "2") ] "test.obs.lab" == c);
  Alcotest.(check bool) "different labels, different series" false
    (R.counter ~labels:[ ("a", "9") ] "test.obs.lab" == c);
  Alcotest.(check string) "series name carries the sorted label suffix"
    "test.obs.lab{a=\"1\",b=\"2\"}" (R.Counter.name c);
  Alcotest.(check string) "no labels, no suffix" "" (R.encode_labels []);
  Alcotest.(check (pair string string)) "split_name separates the suffix"
    ("test.obs.lab", "{a=\"1\",b=\"2\"}")
    (R.split_name (R.Counter.name c));
  Alcotest.(check (pair string string)) "split_name on a bare name"
    ("plain", "") (R.split_name "plain");
  (* exposition escaping: backslash, double quote, newline *)
  Alcotest.(check string) "label values escaped for exposition"
    "{v=\"a\\\"b\\\\c\\nd\"}"
    (R.encode_labels [ ("v", "a\"b\\c\nd") ])

(* --- histogram log-bucket boundaries --- *)

let test_histogram_buckets () =
  let module H = R.Histogram in
  Alcotest.(check int) "zero lands in bucket 0" 0 (H.bucket_of 0);
  Alcotest.(check int) "negatives clamp to bucket 0" 0 (H.bucket_of (-7));
  Alcotest.(check int) "one lands in bucket 1" 1 (H.bucket_of 1);
  (* exact powers of two open a fresh bucket: 2^k -> bucket k+1, and the
     bucket's bounds [2^k, 2^(k+1)-1] contain the value exactly *)
  for k = 1 to 40 do
    let v = 1 lsl k in
    let b = H.bucket_of v in
    Alcotest.(check int) (Printf.sprintf "2^%d bucket" k) (k + 1) b;
    Alcotest.(check int) "power of two is its bucket's lower bound" v
      (H.lower_bound b);
    Alcotest.(check bool) "below the upper bound" true (v <= H.upper_bound b);
    Alcotest.(check int) "2^k - 1 stays one bucket below" k (H.bucket_of (v - 1))
  done;
  Alcotest.(check int) "max_int clamps into the last bucket" (H.nbuckets - 1)
    (H.bucket_of max_int);
  Alcotest.(check int) "last bucket's upper bound is max_int" max_int
    (H.upper_bound (H.nbuckets - 1));
  let h = R.histogram "test.obs.buckets" in
  H.reset h;
  List.iter (H.observe h) [ 0; 1; 2; 1024; max_int ];
  let counts = H.bucket_counts h in
  Alcotest.(check int) "bucket array spans nbuckets" H.nbuckets
    (Array.length counts);
  Alcotest.(check int) "bucket counts account for every observation" 5
    (Array.fold_left ( + ) 0 counts);
  Alcotest.(check int) "0 counted in bucket 0" 1 counts.(0);
  Alcotest.(check int) "1024 counted in bucket 11" 1 counts.(11);
  Alcotest.(check int) "max_int counted in the last bucket" 1
    (counts.(H.nbuckets - 1))

(* --- span-tree profiler --- *)

module Profile = Peace_obs.Profile

let with_profile f =
  let p = Profile.create () in
  Trace.set_collector (Some (Profile.collector p));
  let v = Fun.protect ~finally:(fun () -> Trace.set_collector None) f in
  (v, p)

let test_profile_tree () =
  (* one of the attributed counters, bumped by hand: nothing else runs on
     this domain while the profile is installed *)
  let ops_c = R.counter "ec.scalar_mul" in
  let attributed (n : Profile.node) = List.assoc "ec.scalar_mul" n.Profile.ops in
  let (), p =
    with_profile (fun () ->
        for _ = 1 to 3 do
          Trace.with_span "p.outer" (fun () ->
              R.Counter.add ops_c 2;
              Trace.with_span "p.inner" (fun () -> R.Counter.incr ops_c))
        done)
  in
  Alcotest.(check int) "no orphan end events" 0 (Profile.dropped p);
  let outer =
    match List.filter (fun n -> n.Profile.name = "p.outer") (Profile.roots p) with
    | [ n ] -> n
    | l -> Alcotest.failf "expected one p.outer root, got %d" (List.length l)
  in
  Alcotest.(check int) "outer called 3 times" 3 outer.Profile.count;
  Alcotest.(check (list string)) "root path" [ "p.outer" ] outer.Profile.path;
  let inner =
    match outer.Profile.children with
    | [ n ] -> n
    | l -> Alcotest.failf "expected one child, got %d" (List.length l)
  in
  Alcotest.(check (list string)) "child path is root-first"
    [ "p.outer"; "p.inner" ] inner.Profile.path;
  Alcotest.(check int) "inner called 3 times" 3 inner.Profile.count;
  Alcotest.(check bool) "self <= total on every node" true
    (outer.Profile.self_ns <= outer.Profile.total_ns
    && inner.Profile.self_ns <= inner.Profile.total_ns);
  Alcotest.(check (list string)) "every default op is a column"
    Profile.default_ops (List.map fst outer.Profile.ops);
  Alcotest.(check int) "ops attributed to the whole span" 9 (attributed outer);
  Alcotest.(check int) "children's ops subtracted for self" 6
    (List.assoc "ec.scalar_mul" outer.Profile.self_ops);
  Alcotest.(check int) "inner keeps its own ops" 3 (attributed inner)

let test_profile_multidomain () =
  (* spans from several domains fold into one node of the tree; each span
     sleeps so the summed time cannot round to zero *)
  let domains = 3 and per_domain = 8 in
  let (), p =
    with_profile (fun () ->
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to per_domain do
                  Trace.with_span "p.job" (fun () -> Unix.sleepf 0.001)
                done))
        |> List.iter Domain.join)
  in
  match List.filter (fun n -> n.Profile.name = "p.job") (Profile.roots p) with
  | [ n ] ->
    Alcotest.(check int) "every domain's spans in one node"
      (domains * per_domain) n.Profile.count;
    Alcotest.(check bool) "total time is positive" true (n.Profile.total_ns > 0)
  | l -> Alcotest.failf "expected one p.job root, got %d" (List.length l)

let test_profile_cross_domain () =
  (* a trace that hops domains: the root starts here and ends on a spawned
     domain, which opens a child under it and a with_span under that child;
     a second handle starts there and ends here *)
  let (), p =
    with_profile (fun () ->
        let root = Trace.start "x.root" in
        let handoff =
          Domain.join
            (Domain.spawn (fun () ->
                 let child = Trace.start ~parent:(Trace.id root) "x.child" in
                 Trace.with_parent child (fun () ->
                     Trace.with_span "x.leaf" Fun.id);
                 Trace.finish child;
                 Trace.finish root;
                 Trace.start "x.handoff"))
        in
        Trace.finish handoff)
  in
  Alcotest.(check int) "no orphan end events" 0 (Profile.dropped p);
  let one label = function
    | [ n ] -> n
    | l -> Alcotest.failf "expected one %s, got %d" label (List.length l)
  in
  let named name = List.filter (fun n -> n.Profile.name = name) in
  let roots = Profile.roots p in
  let root = one "x.root root" (named "x.root" roots) in
  let handoff = one "x.handoff root" (named "x.handoff" roots) in
  let child = one "x.root child" root.Profile.children in
  let leaf = one "x.child child" child.Profile.children in
  Alcotest.(check (list string)) "child nests under its parent's handle"
    [ "x.root"; "x.child" ] child.Profile.path;
  Alcotest.(check (list string)) "with_span nests under with_parent"
    [ "x.root"; "x.child"; "x.leaf" ] leaf.Profile.path;
  List.iter
    (fun (n : Profile.node) ->
      Alcotest.(check int) (n.Profile.name ^ " counted once") 1 n.Profile.count)
    [ root; child; leaf; handoff ]

let test_concurrent_finish () =
  (* two domains race Trace.finish over the same wall-clock handles: every
     span must end exactly once (the CAS in finish), both in the collector
     stream and in the duration histogram *)
  let n = 500 in
  let h = R.histogram "h.race_ns" in
  R.Histogram.reset h;
  let ends = Atomic.make 0 in
  Trace.set_collector
    (Some
       (function
       | Trace.End _ -> Atomic.incr ends
       | Trace.Begin _ -> ()));
  Fun.protect ~finally:(fun () -> Trace.set_collector None) (fun () ->
      let handles =
        Array.init n (fun _ -> Trace.start "h.race")
      in
      let racer () =
        Domain.spawn (fun () ->
            Array.iter (fun hd -> Trace.finish hd) handles)
      in
      let d1 = racer () and d2 = racer () in
      Domain.join d1;
      Domain.join d2);
  Alcotest.(check int) "each span ends exactly once" n (Atomic.get ends);
  Alcotest.(check int) "each duration observed exactly once" n
    (R.Histogram.count h)

(* --- exposition renderers --- *)

let test_chrome_export () =
  let r = Expo.recorder () in
  Trace.set_collector (Some (Expo.record r));
  Fun.protect ~finally:(fun () -> Trace.set_collector None) (fun () ->
      Trace.with_span "c.outer" (fun () ->
          Trace.with_span "c.inner" Fun.id;
          Trace.with_span "c.inner" Fun.id);
      (* an unmatched begin must be dropped, not emitted unbalanced *)
      ignore (Trace.start "c.never_finished"));
  let json = Expo.chrome (Expo.events r) in
  let doc =
    match J.parse json with
    | Ok d -> d
    | Error e -> Alcotest.failf "chrome output is not valid JSON: %s" e
  in
  let evs =
    match Option.bind (J.member "traceEvents" doc) J.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let phase ev =
    match J.member "ph" ev with Some (J.Str s) -> s | _ -> "?"
  in
  let begins = List.filter (fun e -> phase e = "B") evs in
  let ends = List.filter (fun e -> phase e = "E") evs in
  Alcotest.(check int) "three completed spans" 3 (List.length begins);
  Alcotest.(check int) "B/E pairs balance" (List.length begins)
    (List.length ends);
  Alcotest.(check bool) "the unmatched begin was dropped" true
    (not
       (List.exists
          (fun e ->
            match J.member "name" e with
            | Some (J.Str "c.never_finished") -> true
            | _ -> false)
          evs));
  let ts ev =
    match Option.bind (J.member "ts" ev) J.to_float with
    | Some t -> t
    | None -> Alcotest.fail "event without ts"
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> ts a <= ts b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone in emission order" true
    (monotone evs)

let test_jsonl_golden () =
  (* the span JSONL line format, byte for byte: --trace files, test/cli.t
     and watchsmoke.sh scan substrings of it *)
  Alcotest.(check string) "begin with every optional field"
    {|{"ev":"B","name":"g.verify","id":5,"parent":2,"ts_ns":100,"trace":77,"remote_parent":9,"attrs":{"user":"7","msg":"a\"b\\c\nd"}}|}
    (Expo.jsonl
       (Trace.Begin
          {
            name = "g.verify";
            id = 5;
            parent = Some 2;
            ts = 100;
            trace = Some 77;
            remote_parent = Some 9;
            attrs = [ ("user", "7"); ("msg", "a\"b\\c\nd") ];
          }));
  Alcotest.(check string) "root begin"
    {|{"ev":"B","name":"r","id":1,"parent":null,"ts_ns":0}|}
    (Expo.jsonl
       (Trace.Begin
          {
            name = "r";
            id = 1;
            parent = None;
            ts = 0;
            trace = None;
            remote_parent = None;
            attrs = [];
          }));
  Alcotest.(check string) "end"
    {|{"ev":"E","name":"g.verify","id":5,"ts_ns":160,"dur_ns":60}|}
    (Expo.jsonl (Trace.End { name = "g.verify"; id = 5; ts = 160; dur = 60 }))

let test_jsonl_to_domains () =
  (* four domains write through one jsonl_to at once: its lock keeps every
     line whole, and the unsynchronised list below loses none *)
  let domains = 4 and per_domain = 200 in
  let lines = ref [] in
  Trace.set_collector (Some (Expo.jsonl_to (fun l -> lines := l :: !lines)));
  Fun.protect ~finally:(fun () -> Trace.set_collector None) (fun () ->
      List.init domains (fun d ->
          Domain.spawn (fun () ->
              for _ = 1 to per_domain do
                Trace.with_span ~attrs:[ ("d", string_of_int d) ] "j.outer"
                  (fun () -> Trace.with_span "j.inner" Fun.id)
              done))
      |> List.iter Domain.join);
  let lines = !lines in
  Alcotest.(check int) "four events per iteration" (4 * domains * per_domain)
    (List.length lines);
  List.iter
    (fun l ->
      match J.parse l with
      | Ok (J.Obj _) -> ()
      | _ -> Alcotest.failf "not one JSON object: %s" l)
    lines;
  let count ev =
    List.length
      (List.filter (fun l -> after l ("\"ev\":\"" ^ ev ^ "\"") <> None) lines)
  in
  Alcotest.(check int) "balanced begin/end" (count "B") (count "E")

let test_folded_export () =
  (* folded emits only paths with self > 0, so the leaf must burn enough
     wall time to register on the clock *)
  let spin () =
    let x = ref 0 in
    for i = 1 to 200_000 do
      x := !x + i
    done;
    ignore (Sys.opaque_identity !x)
  in
  let (), p =
    with_profile (fun () ->
        Trace.with_span "f.outer" (fun () -> Trace.with_span "f.inner" spin))
  in
  let out = Expo.folded p in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  Alcotest.(check bool) "at least one stack line" true (lines <> []);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no value separator in %S" line
      | Some i ->
        let path = String.sub line 0 i in
        let value = String.sub line (i + 1) (String.length line - i - 1) in
        Alcotest.(check bool) "value is a non-negative integer" true
          (match int_of_string_opt value with Some v -> v >= 0 | None -> false);
        Alcotest.(check bool) "path is semicolon-joined and non-empty" true
          (path <> "" && not (String.contains path ' ')))
    lines;
  Alcotest.(check bool) "the nested path appears" true
    (List.exists
       (fun l ->
         String.length l > 16 && String.sub l 0 16 = "f.outer;f.inner ")
       lines)

let test_prometheus_exposition () =
  let c = R.counter ~labels:[ ("tricky", "a\"b\\c\nd") ] "test.obs.prom_total" in
  R.Counter.reset c;
  R.Counter.add c 7;
  let h = R.histogram "test.obs.promh" in
  R.Histogram.reset h;
  List.iter (R.Histogram.observe h) [ 1; 6; 100 ];
  let text = Expo.prometheus () in
  Alcotest.(check bool) "label value escaped per the exposition rules" true
    (after text "peace_test_obs_prom_total{tricky=\"a\\\"b\\\\c\\nd\"} 7" <> None);
  Alcotest.(check bool) "histogram count series" true
    (after text "peace_test_obs_promh_count 3" <> None);
  Alcotest.(check bool) "histogram sum series" true
    (after text "peace_test_obs_promh_sum 107" <> None);
  Alcotest.(check bool) "+Inf bucket covers everything" true
    (after text "peace_test_obs_promh_bucket{le=\"+Inf\"} 3" <> None);
  Alcotest.(check bool) "buckets are cumulative" true
    (after text "peace_test_obs_promh_bucket{le=\"1\"} 1" <> None
    && after text "peace_test_obs_promh_bucket{le=\"7\"} 2" <> None
    && after text "peace_test_obs_promh_bucket{le=\"127\"} 3" <> None);
  (* grammar: every sample line is NAME{...}? SP VALUE with a legal name *)
  let legal_name_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = ':'
  in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        let name_end =
          match String.index_opt line '{' with
          | Some i -> i
          | None -> ( match String.index_opt line ' ' with
            | Some i -> i
            | None -> Alcotest.failf "no value on line %S" line)
        in
        let name = String.sub line 0 name_end in
        Alcotest.(check bool)
          (Printf.sprintf "metric name %S is exposition-legal" name)
          true
          (name <> ""
          && (not (name.[0] >= '0' && name.[0] <= '9'))
          && String.for_all legal_name_char name)
      end)
    (String.split_on_char '\n' text);
  (* one TYPE declaration per family, even with labeled series present *)
  let type_lines =
    List.filter
      (fun l ->
        match after l "# TYPE peace_test_obs_prom_total " with
        | Some _ -> true
        | None -> false)
      (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "single TYPE line for the labeled family" 1
    (List.length type_lines)

(* --- serve robustness --- *)

let test_serve_addr_in_use () =
  (* grab a port, then ask Serve to bind the same one: a clean Error, not
     an escaped Unix_error *)
  let blocker = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close blocker with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt blocker Unix.SO_REUSEADDR true;
      Unix.bind blocker
        (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", 0));
      Unix.listen blocker 1;
      let port =
        match Unix.getsockname blocker with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> Alcotest.fail "no port"
      in
      match Peace_obs.Serve.serve ~port ~max_requests:1 () with
      | Ok () -> Alcotest.fail "bound an occupied port"
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "message names the endpoint: %s" msg)
          true
          (Astring.String.is_infix ~affix:(string_of_int port) msg))

let test_serve_survives_client_disconnect () =
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Peace_obs.Serve.serve ~port:0 ~max_requests:3
          ~on_listen:(fun p -> Atomic.set port p)
          ())
  in
  let rec wait_port tries =
    if Atomic.get port = 0 then
      if tries = 0 then Alcotest.fail "server never listened"
      else begin
        Unix.sleepf 0.01;
        wait_port (tries - 1)
      end
  in
  wait_port 500;
  let addr =
    Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", Atomic.get port)
  in
  let abortive_request () =
    let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect c addr;
    let req = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n" in
    ignore (Unix.write_substring c req 0 (String.length req));
    (* SO_LINGER 0: close sends RST, so the server's response write hits
       EPIPE/ECONNRESET instead of draining quietly *)
    Unix.setsockopt_optint c Unix.SO_LINGER (Some 0);
    Unix.close c
  in
  abortive_request ();
  abortive_request ();
  (* the server survived both aborts: a polite request still gets answered *)
  let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect c addr;
  let req = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" in
  ignore (Unix.write_substring c req 0 (String.length req));
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec drain () =
    match Unix.read c chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
    | exception Unix.Unix_error _ -> ()
  in
  drain ();
  Unix.close c;
  let response = Buffer.contents buf in
  Alcotest.(check bool) "healthz answered after aborted clients" true
    (Astring.String.is_infix ~affix:"200 OK" response
    && Astring.String.is_infix ~affix:"ok" response);
  match Domain.join server with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "server errored: %s" msg

(* --- flight recorder --- *)

module Log = Peace_obs.Log

let test_log_ring () =
  Log.clear ();
  let total = Log.capacity + 4 in
  for i = 1 to total do
    Log.info ~attrs:[ ("i", string_of_int i) ] "wrap"
  done;
  let entries = Log.recent () in
  Alcotest.(check int) "ring keeps exactly the last capacity events" Log.capacity
    (List.length entries);
  let nth_i k = List.assoc_opt "i" (Log.attrs (List.nth entries k)) in
  Alcotest.(check (option string)) "oldest surviving event first" (Some "5")
    (nth_i 0);
  Alcotest.(check (option string)) "newest event last"
    (Some (string_of_int total))
    (nth_i (Log.capacity - 1));
  Alcotest.(check bool) "timestamps monotone" true
    (let rec mono = function
       | a :: (b :: _ as rest) -> Log.ts a <= Log.ts b && mono rest
       | _ -> true
     in
     mono entries);
  (* ?n takes the newest n, still oldest-first *)
  (match Log.recent ~n:2 () with
  | [ a; b ] ->
    Alcotest.(check (option string)) "n caps from the newest end"
      (Some (string_of_int (total - 1)))
      (List.assoc_opt "i" (Log.attrs a));
    Alcotest.(check (option string)) "…keeping order"
      (Some (string_of_int total))
      (List.assoc_opt "i" (Log.attrs b))
  | l -> Alcotest.failf "recent ~n:2 returned %d entries" (List.length l));
  Log.clear ();
  Alcotest.(check int) "clear empties the ring" 0 (List.length (Log.recent ()))

let test_log_levels_and_counters () =
  Log.clear ();
  let counter level = R.counter ~labels:[ ("level", level) ] "log.events_total" in
  let levels = [ "debug"; "info"; "warn"; "error" ] in
  let before = List.map (fun l -> R.Counter.value (counter l)) levels in
  Log.debug "d";
  Log.info "i";
  Log.warn "w";
  Log.error "e";
  Alcotest.(check (list string)) "every level lands in the ring" levels
    (List.map (fun e -> Log.level_to_string (Log.entry_level e)) (Log.recent ()));
  Alcotest.(check (list int)) "each event bumps its labeled counter"
    (List.map (( + ) 1) before)
    (List.map (fun l -> R.Counter.value (counter l)) levels)

let test_log_min_level () =
  Log.clear ();
  Log.debug "d";
  Log.info "i";
  Log.warn "w";
  Log.error "e";
  Alcotest.(check int) "no floor: everything" 4 (List.length (Log.recent ()));
  Alcotest.(check (list string)) "warn floor keeps warn and error"
    [ "warn"; "error" ]
    (List.map
       (fun e -> Log.level_to_string (Log.entry_level e))
       (Log.recent ~min_level:Log.Warn ()));
  Alcotest.(check int) "error floor" 1
    (List.length (Log.recent ~min_level:Log.Error ()));
  (* the jsonl face — what /flight?level= serves — filters the same *)
  let lines body = List.filter (fun l -> l <> "") (String.split_on_char '\n' body) in
  Alcotest.(check int) "recent_jsonl filters too" 2
    (List.length (lines (Log.recent_jsonl ~min_level:Log.Warn ())))

let test_log_jsonl () =
  Log.clear ();
  Log.warn ~attrs:[ ("q", "a\"b\nc") ] "tricky \"msg\"";
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' (Log.recent_jsonl ())) with
  | [ line ] ->
    (match J.parse line with
    | Error e -> Alcotest.failf "flight line is not valid JSON: %s" e
    | Ok doc ->
      Alcotest.(check bool) "level field" true
        (J.member "level" doc = Some (J.Str "warn"));
      Alcotest.(check bool) "msg escaped and round-trips" true
        (J.member "msg" doc = Some (J.Str "tricky \"msg\""));
      Alcotest.(check bool) "attrs nested object" true
        (match J.member "attrs" doc with
        | Some attrs -> J.member "q" attrs = Some (J.Str "a\"b\nc")
        | None -> false))
  | l -> Alcotest.failf "expected 1 flight line, got %d" (List.length l)

(* --- memoized error-counter families --- *)

let test_counter_family () =
  let fam = R.counter_family ~label:"kind" "test.obs.fam_total" in
  let a = fam "decode" in
  R.Counter.reset a;
  R.Counter.incr a;
  Alcotest.(check bool) "family memoizes per value" true (fam "decode" == a);
  Alcotest.(check bool) "family aliases the labeled registry series" true
    (R.counter ~labels:[ ("kind", "decode") ] "test.obs.fam_total" == a);
  Alcotest.(check string) "series name carries the label"
    "test.obs.fam_total{kind=\"decode\"}" (R.Counter.name a);
  Alcotest.(check bool) "distinct values, distinct series" false
    (fam "verify" == a);
  let racers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              R.Counter.incr (fam "race")
            done))
  in
  List.iter Domain.join racers;
  Alcotest.(check int) "concurrent first-use loses no increments" 4000
    (R.Counter.value (fam "race"))

(* --- runtime telemetry --- *)

module Runtime = Peace_obs.Runtime

let test_runtime_sample () =
  Runtime.sample ();
  let gauge name = R.Gauge.value (R.gauge name) in
  Alcotest.(check bool) "heap_words is a live process's heap" true
    (gauge "runtime.gc.heap_words" > 0);
  Alcotest.(check bool) "minor_words grows monotonically" true
    (gauge "runtime.gc.minor_words" > 0);
  Alcotest.(check bool) "top_heap >= heap" true
    (gauge "runtime.gc.top_heap_words" >= gauge "runtime.gc.heap_words");
  Alcotest.(check bool) "uptime is non-negative" true
    (gauge "runtime.uptime_ms" >= 0);
  Alcotest.(check int) "gauge_names covers the published set" 10
    (List.length Runtime.gauge_names);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "%s registered" n)
        true
        (List.mem_assoc n (R.gauges ())))
    Runtime.gauge_names;
  (* track: one Timeseries tick records every runtime gauge *)
  let sampler = Ts.create ~capacity:8 ~now:(fun () -> 42) () in
  Runtime.track sampler;
  Runtime.sample ();
  Ts.sample sampler;
  List.iter
    (fun n ->
      let s =
        List.find (fun s -> Ts.Series.name s = n) (Ts.series sampler)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s sampled once" n)
        1
        (Ts.Series.length s))
    Runtime.gauge_names

(* --- serve: query parsing and the live ops surface --- *)

module Serve = Peace_obs.Serve

let test_query_parsing () =
  Alcotest.(check (list (pair string string))) "empty" [] (Serve.parse_query "");
  Alcotest.(check (list (pair string string))) "pairs and bare keys"
    [ ("n", "32"); ("verbose", "") ]
    (Serve.parse_query "n=32&verbose");
  Alcotest.(check (list (pair string string))) "percent and plus decode"
    [ ("name", "a b"); ("q", "x&y=z") ]
    (Serve.parse_query "name=a+b&q=x%26y%3Dz");
  Alcotest.(check string) "bad escape passes through" "100%"
    (Serve.percent_decode "100%");
  (match Serve.parse_request "GET /flight?n=5 HTTP/1.1\r\nHost: x\r\n\r\n" with
  | Some (meth, path, query) ->
    Alcotest.(check string) "method" "GET" meth;
    Alcotest.(check string) "path split off the query" "/flight" path;
    Alcotest.(check (list (pair string string))) "query decoded"
      [ ("n", "5") ] query
  | None -> Alcotest.fail "request head did not parse");
  Alcotest.(check bool) "garbage head rejected" true
    (Serve.parse_request "garbage" = None)

let test_live_ops_endpoints () =
  (* one server, five scrapes: degraded /healthz (plain + verbose), the
     flight recorder, /series without and with an attached sampler *)
  Log.clear ();
  Log.warn ~attrs:[ ("where", "test") ] "flight entry";
  Serve.register_health "test.always_ok" (fun () -> Ok ());
  Serve.register_health "test.flaky" (fun () -> Error "broken gyroscope");
  Serve.register_health "test.throws" (fun () -> failwith "kaboom");
  Serve.set_series_source None;
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Serve.serve ~port:0 ~max_requests:5
          ~on_listen:(fun p -> Atomic.set port p)
          ())
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.unregister_health "test.always_ok";
      Serve.unregister_health "test.flaky";
      Serve.unregister_health "test.throws";
      Serve.set_series_source None)
    (fun () ->
      let rec wait_port tries =
        if Atomic.get port = 0 then
          if tries = 0 then Alcotest.fail "server never listened"
          else begin
            Unix.sleepf 0.01;
            wait_port (tries - 1)
          end
      in
      wait_port 500;
      let get path =
        match Serve.http_get ~port:(Atomic.get port) path with
        | Ok r -> r
        | Error e -> Alcotest.failf "GET %s: %s" path e
      in
      let infix a s = Astring.String.is_infix ~affix:a s in
      let code, body = get "/healthz" in
      Alcotest.(check int) "failing checks degrade /healthz to 503" 503 code;
      Alcotest.(check bool) "body leads with the verdict" true
        (infix "degraded" body && infix "test.flaky: broken gyroscope" body);
      Alcotest.(check bool) "a throwing check reads as a failure" true
        (infix "test.throws" body);
      let code, body = get "/healthz?verbose" in
      Alcotest.(check int) "verbose keeps the 503" 503 code;
      Alcotest.(check bool) "verbose lists passing checks too" true
        (infix "ok test.always_ok" body
        && infix "fail test.flaky: broken gyroscope" body);
      let code, body = get "/flight?n=1" in
      Alcotest.(check int) "/flight answers 200" 200 code;
      Alcotest.(check bool) "/flight returns the ring as JSONL" true
        (infix "\"msg\":\"flight entry\"" body && infix "\"where\"" body);
      let code, body = get "/series" in
      Alcotest.(check int) "/series without a sampler is 404" 404 code;
      Alcotest.(check bool) "…and says why" true (infix "no series source" body);
      let sampler = Ts.create ~capacity:8 ~now:(fun () -> 7) () in
      let _s = Ts.track sampler "test.live.metric" (fun () -> 3.5) in
      Ts.sample sampler;
      Serve.set_series_source (Some sampler);
      let code, body = get "/series?name=test.live.metric" in
      Alcotest.(check int) "/series with a sampler answers 200" 200 code;
      Alcotest.(check bool) "sample lines carry series, ts, value" true
        (infix "\"series\":\"test.live.metric\"" body
        && infix "\"ts\":7" body && infix "3.5" body);
      match Domain.join server with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "server errored: %s" msg)

(* --- the tamper-evident audit ledger --- *)

module Audit = Peace_obs.Audit
module Ecdsa = Peace_ec.Ecdsa
module Operator = Peace_core.Network_operator

let audit_curve = Lazy.force Peace_ec.Curves.secp160r1

let audit_key =
  lazy
    (Ecdsa.generate audit_curve
       (Peace_hash.Drbg.bytes_fn
          (Peace_hash.Drbg.create ~seed:"test-obs-audit" ())))

let audit_signer () =
  let key = Lazy.force audit_key in
  Operator.audit_signer audit_curve ~public:key.Ecdsa.q
    ~sign:(Ecdsa.sign audit_curve ~key)

(* a sealed 20-event ledger with a checkpoint every 8 records, signed *)
let audit_fixture () =
  let lines = ref [] in
  let ledger =
    Audit.create ~checkpoint_every:8 ~signer:(audit_signer ())
      ~sink:(fun line -> lines := line :: !lines)
      ~meta:[ ("source", "test") ]
      ()
  in
  for i = 1 to 20 do
    ignore
      (Audit.append ledger ~kind:"access_accept"
         [ ("router", "1"); ("session", Printf.sprintf "%04x" i) ])
  done;
  Audit.seal ledger;
  (ledger, List.rev !lines)

let expect_break ?(verify_sig = true) lines ~seq ~reason_infix what =
  match
    Audit.verify
      ?verify_sig:(if verify_sig then Some Operator.verify_audit_sig else None)
      lines
  with
  | Ok _ -> Alcotest.failf "%s: verification unexpectedly passed" what
  | Error b ->
    Alcotest.(check int) (what ^ ": first bad seq") seq b.Audit.br_seq;
    Alcotest.(check bool)
      (Printf.sprintf "%s: reason %S mentions %S" what b.Audit.br_reason
         reason_infix)
      true
      (Astring.String.is_infix ~affix:reason_infix b.Audit.br_reason)

let test_audit_chain_roundtrip () =
  let ledger, lines = audit_fixture () in
  (* 20 events + genesis + 2 interior checkpoints + the sealing one *)
  Alcotest.(check int) "records counted" 24 (Audit.records ledger);
  Alcotest.(check int) "checkpoints counted" 3 (Audit.checkpoints ledger);
  Alcotest.(check bool) "sealed" true (Audit.sealed ledger);
  Alcotest.(check int) "sink saw every record" 24 (List.length lines);
  (* sealing is idempotent, appends after sealing are counted no-ops *)
  Audit.seal ledger;
  let seq_before = fst (Audit.head ledger) in
  Alcotest.(check int) "append after seal returns head seq" seq_before
    (Audit.append ledger ~kind:"late" []);
  Alcotest.(check int) "…and adds nothing" 24 (Audit.records ledger);
  (match Audit.verify ~verify_sig:Operator.verify_audit_sig lines with
  | Error b -> Alcotest.failf "clean ledger failed at %d: %s" b.Audit.br_seq b.Audit.br_reason
  | Ok r ->
    Alcotest.(check int) "verify counts records" 24 r.Audit.vr_records;
    Alcotest.(check int) "verify counts checkpoints" 3 r.Audit.vr_checkpoints;
    Alcotest.(check bool) "signed ledger reported signed" true r.Audit.vr_signed;
    Alcotest.(check string) "verify head matches the live chain"
      (snd (Audit.head ledger))
      r.Audit.vr_head);
  (* chain-only verification (no key) also passes *)
  (match Audit.verify lines with
  | Ok _ -> ()
  | Error b -> Alcotest.failf "chain-only verify failed: %s" b.Audit.br_reason);
  (* head_json parses and agrees *)
  match J.parse (Audit.head_json ledger) with
  | Error e -> Alcotest.failf "head_json invalid: %s" e
  | Ok doc ->
    Alcotest.(check bool) "head_json seq" true
      (J.member "seq" doc = Some (J.Num (float_of_int (fst (Audit.head ledger)))));
    Alcotest.(check bool) "head_json sealed flag" true
      (J.member "sealed" doc = Some (J.Bool true))

let test_audit_since () =
  let ledger, lines = audit_fixture () in
  let all = Audit.since ledger (-1) in
  Alcotest.(check int) "since -1 replays everything" 24 (List.length all);
  Alcotest.(check (list string)) "ring agrees with the sink" lines all;
  let tail = Audit.since ledger 20 in
  Alcotest.(check int) "since 20 returns seq 21..23" 3 (List.length tail);
  Alcotest.(check (list string)) "tail records in order"
    (List.filteri (fun i _ -> i > 20) lines)
    tail;
  Alcotest.(check int) "since head returns nothing" 0
    (List.length (Audit.since ledger (fst (Audit.head ledger))))

let test_audit_tamper_flip () =
  let _, lines = audit_fixture () in
  (* flip one byte inside record 5's attrs (its session id) *)
  let tampered =
    List.mapi
      (fun i line ->
        if i = 5 then
          match Astring.String.cut ~sep:"\"session\":\"0005\"" line with
          | Some (a, b) -> a ^ "\"session\":\"0006\"" ^ b
          | None -> Alcotest.failf "session attr not found in %S" line
        else line)
      lines
  in
  expect_break tampered ~seq:5 ~reason_infix:"hash" "byte flip"

let test_audit_tamper_truncate () =
  let _, lines = audit_fixture () in
  (* cut the tail mid-window: the ledger no longer ends at a checkpoint *)
  let cut = List.filteri (fun i _ -> i < 22) lines in
  expect_break cut ~seq:21 ~reason_infix:"checkpoint" "truncation";
  (* --allow-open (require_seal:false) accepts the same prefix *)
  match Audit.verify ~verify_sig:Operator.verify_audit_sig ~require_seal:false cut with
  | Ok r -> Alcotest.(check int) "open verify sees the prefix" 22 r.Audit.vr_records
  | Error b -> Alcotest.failf "open verify failed: %s" b.Audit.br_reason

let test_audit_tamper_reorder () =
  let _, lines = audit_fixture () in
  let arr = Array.of_list lines in
  (* swap two event records: the seq sequence breaks where 3 should be *)
  let tmp = arr.(3) in
  arr.(3) <- arr.(4);
  arr.(4) <- tmp;
  expect_break (Array.to_list arr) ~seq:3 ~reason_infix:"seq" "reorder"

let test_audit_tamper_signature () =
  let _, lines = audit_fixture () in
  (* re-chain the ledger around a forged checkpoint signature: the hashes
     all recompute, so only the signature check can catch it *)
  let prev = ref "" in
  let forged =
    List.mapi
      (fun i line ->
        let doc = match J.parse line with Ok d -> d | Error e -> failwith e in
        let field name =
          match J.member name doc with Some (J.Str s) -> s | _ -> failwith name
        in
        let seq = i in
        let ts = field "ts" and kind = field "kind" in
        let attrs =
          match J.member "attrs" doc with
          | Some (J.Obj kvs) ->
            List.map
              (fun (k, v) ->
                match v with J.Str s -> (k, s) | _ -> failwith "attr")
              kvs
          | _ -> []
        in
        let attrs =
          if kind = "checkpoint" && seq = 9 then
            List.map
              (fun (k, v) ->
                if k = "sig" then
                  (* flip the leading hex digit, staying valid hex *)
                  ( k,
                    (if v.[0] = '0' then "1" else "0")
                    ^ String.sub v 1 (String.length v - 1) )
                else (k, v))
              attrs
          else attrs
        in
        let prev_hex = if seq = 0 then field "prev" else !prev in
        let attrs_json =
          String.concat ","
            (List.map
               (fun (k, v) -> J.str k ^ ":" ^ J.str v)
               (List.sort (fun (a, _) (b, _) -> compare a b) attrs))
        in
        let canonical =
          Printf.sprintf "{\"seq\":%d,\"ts\":%s,\"kind\":%s,\"prev\":%s,\"attrs\":{%s}}"
            seq (J.str ts) (J.str kind) (J.str prev_hex) attrs_json
        in
        let hash =
          Peace_hash.Sha256.to_hex (Peace_hash.Sha256.digest (prev_hex ^ canonical))
        in
        prev := hash;
        Printf.sprintf "%s,\"hash\":\"%s\"}"
          (String.sub canonical 0 (String.length canonical - 1))
          hash)
      lines
  in
  (* sanity: the re-chained forgery passes a chain-only walk… *)
  (match Audit.verify forged with
  | Ok _ -> ()
  | Error b ->
    Alcotest.failf "re-chained forgery should pass chain-only: %s" b.Audit.br_reason);
  (* …and only the signature check exposes it *)
  expect_break forged ~seq:9 ~reason_infix:"signature" "forged checkpoint"

(* One verifier serves every ledger: it reads the curve from the genesis
   record's algo, so a secp256r1 ledger verifies as the secp160r1 fixture
   does, and the same key and signature read under another curve's or an
   unknown algo do not. *)
let test_audit_verifier_curves () =
  let curve = Lazy.force Peace_ec.Curves.secp256r1 in
  let key =
    Ecdsa.generate curve
      (Peace_hash.Drbg.bytes_fn
         (Peace_hash.Drbg.create ~seed:"test-obs-audit-p256" ()))
  in
  let signer =
    Operator.audit_signer curve ~public:key.Ecdsa.q ~sign:(Ecdsa.sign curve ~key)
  in
  Alcotest.(check string) "algo names the curve" "ecdsa-secp256r1"
    signer.Audit.s_algo;
  let lines = ref [] in
  let ledger =
    Audit.create ~checkpoint_every:4 ~signer
      ~sink:(fun line -> lines := line :: !lines)
      ()
  in
  for i = 1 to 6 do
    ignore (Audit.append ledger ~kind:"access_accept" [ ("session", string_of_int i) ])
  done;
  Audit.seal ledger;
  (match Audit.verify ~verify_sig:Operator.verify_audit_sig (List.rev !lines) with
  | Ok r ->
    Alcotest.(check bool) "signed" true r.Audit.vr_signed;
    Alcotest.(check int) "every checkpoint checked" (Audit.checkpoints ledger)
      r.Audit.vr_checkpoints
  | Error b ->
    Alcotest.failf "secp256r1 ledger failed at %d: %s" b.Audit.br_seq
      b.Audit.br_reason);
  let payload = "checkpoint payload" in
  let signature = signer.Audit.s_sign payload in
  let verify ?(pk = signer.Audit.s_pk) algo =
    Operator.verify_audit_sig ~algo ~pk ~payload ~signature
  in
  Alcotest.(check bool) "its own algo verifies" true (verify "ecdsa-secp256r1");
  Alcotest.(check bool) "another curve's algo refuses" false
    (verify "ecdsa-secp160r1");
  Alcotest.(check bool) "an unknown algo refuses" false (verify "rsa-2048");
  Alcotest.(check bool) "undecodable hex refuses" false
    (verify ~pk:"not hex" "ecdsa-secp256r1")

(* --- UTF-16 surrogate pairs in JSON strings --- *)

let test_json_surrogates () =
  let parse_str s =
    match J.parse s with
    | Ok (J.Str v) -> v
    | Ok _ -> Alcotest.failf "%S did not parse to a string" s
    | Error e -> Alcotest.failf "parse %S: %s" s e
  in
  Alcotest.(check string) "surrogate pair combines into one 4-byte scalar"
    "\xf0\x9f\x98\x80"
    (parse_str "\"\\ud83d\\ude00\"");
  Alcotest.(check string) "astral scalar survives escape round-trip"
    "\xf0\x9f\x98\x80"
    (parse_str (J.str "\xf0\x9f\x98\x80"));
  Alcotest.(check string) "lone high surrogate decodes alone" "\xed\xa0\xbd"
    (parse_str "\"\\ud83d\"");
  Alcotest.(check string) "high surrogate + non-low escape decode separately"
    "\xed\xa0\xbdA"
    (parse_str "\"\\ud83d\\u0041\"");
  Alcotest.(check string) "high surrogate + literal char decode separately"
    "\xed\xa0\xbdx"
    (parse_str "\"\\ud83dx\"");
  Alcotest.(check string) "lone low surrogate decodes alone" "\xed\xb8\x80"
    (parse_str "\"\\ude00\"")

(* --- flight-recorder label filter --- *)

let test_log_label_filter () =
  Log.clear ();
  Log.info ~attrs:[ ("router", "r1"); ("op", "auth") ] "one";
  Log.info ~attrs:[ ("router", "r2") ] "two";
  Log.info "three";
  let msgs l = List.map Log.msg l in
  Alcotest.(check (list string)) "label filter keeps matching entries"
    [ "one" ]
    (msgs (Log.recent ~label:("router", "r1") ()));
  Alcotest.(check (list string)) "any attr position matches" [ "one" ]
    (msgs (Log.recent ~label:("op", "auth") ()));
  Alcotest.(check (list string)) "value must match too" []
    (msgs (Log.recent ~label:("router", "r9") ()));
  Alcotest.(check int) "no filter sees everything" 3
    (List.length (Log.recent ()));
  Alcotest.(check bool) "jsonl honours the filter" true
    (let j = Log.recent_jsonl ~label:("router", "r2") () in
     Astring.String.is_infix ~affix:"\"msg\":\"two\"" j
     && not (Astring.String.is_infix ~affix:"\"msg\":\"one\"" j));
  Log.clear ()

let test_audit_installed_emit () =
  Alcotest.(check bool) "no ledger installed by default" true
    (Audit.installed () = None);
  Audit.emit ~kind:"noop" [];
  let ledger = Audit.create ~checkpoint_every:1000 () in
  Audit.install (Some ledger);
  Fun.protect
    ~finally:(fun () -> Audit.install None)
    (fun () ->
      Audit.emit ~kind:"access_reject" [ ("code", "7") ];
      Alcotest.(check int) "emit reaches the installed ledger" 2
        (Audit.records ledger));
  Audit.emit ~kind:"after" [];
  Alcotest.(check int) "uninstalled ledger stops growing" 2
    (Audit.records ledger)

(* --- the alert rule engine --- *)

module Alert = Peace_obs.Alert

let alert_rules specs =
  match Alert.rules_of_string specs with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S: %s" specs e

let firing_names t = List.map (fun s -> s.Alert.s_name) (Alert.firing t)

let test_alert_grammar () =
  (* every condition form round-trips through its canonical spec *)
  List.iter
    (fun spec ->
      match Alert.of_string spec with
      | Error e -> Alcotest.failf "parse %S: %s" spec e
      | Ok r -> (
        Alcotest.(check string) ("canonical " ^ spec) spec (Alert.to_string r);
        match Alert.of_string (Alert.to_string r) with
        | Ok r' -> Alcotest.(check bool) ("round-trip " ^ spec) true (r = r')
        | Error e -> Alcotest.failf "re-parse %S: %s" spec e))
    [
      "hot=over:service.conn_queue_depth:8:5s";
      "cold=under:service.workers_busy:0.5:1m";
      "loss=rate:sim.faults.frames_lost:2:10s";
      "burn=burn:service.errors_total/service.requests_total:5m,1h:2%";
      "storm=storm:6:20:30s";
      "reuse=reuse:5:5m";
      "slow=anomaly:service.request_ns:4:1500ms";
      "over:x:1";
    ];
  (* unnamed rules default to the canonical token *)
  (match Alert.of_string "over:x:1.5" with
  | Ok r -> Alcotest.(check string) "default name" "over:x:1.5" r.Alert.r_name
  | Error e -> Alcotest.fail e);
  (* malformed specs are errors, never crashes *)
  List.iter
    (fun spec ->
      match Alert.of_string spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" spec)
    [
      "";
      "over:x";
      "over:x:notanumber";
      "over:x:1:5q";
      "rate:x:1";
      "burn:a/b:5m:2%";
      "burn:ab:5m,1h:2%";
      "burn:a/b:1h,5m:2%";
      "storm:x:1:1s";
      "reuse:0:1s";
      "anomaly:x:-1";
      "nope:x:1";
    ];
  (* rules files: comments, blank lines, ';' separators *)
  (match Alert.rules_of_string "# header\n\na=over:x:1; b=under:y:2 # tail\n" with
  | Ok [ a; b ] ->
    Alcotest.(check string) "first" "a" a.Alert.r_name;
    Alcotest.(check string) "second" "b" b.Alert.r_name
  | Ok l -> Alcotest.failf "expected 2 rules, got %d" (List.length l)
  | Error e -> Alcotest.fail e);
  match Alert.rules_of_string "a=over:x:1\na=under:y:2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate names should be an error"

let test_alert_threshold_states () =
  let clock = ref 0 and v = ref 0.0 in
  let t = Alert.create ~now:(fun () -> !clock) (alert_rules "hot=over:m:10:100ms") in
  let eval () = ignore (Alert.eval ~lookup:(fun _ -> Some !v) t) in
  let state () =
    (List.hd (Alert.statuses t)).Alert.s_state
  in
  eval ();
  Alcotest.(check string) "below the limit: inactive" "inactive"
    (Alert.state_to_string (state ()));
  clock := 10;
  v := 50.0;
  eval ();
  Alcotest.(check string) "above the limit: pending" "pending"
    (Alert.state_to_string (state ()));
  clock := 50;
  eval ();
  Alcotest.(check string) "for-duration not yet held" "pending"
    (Alert.state_to_string (state ()));
  clock := 120;
  eval ();
  Alcotest.(check string) "held past for-duration: firing" "firing"
    (Alert.state_to_string (state ()));
  Alcotest.(check (list string)) "firing lists it" [ "hot" ] (firing_names t);
  Alcotest.(check int) "firing gauge set" 1
    (R.Gauge.value (R.gauge ~labels:[ ("rule", "hot") ] "alerts.firing"));
  clock := 130;
  v := 3.0;
  eval ();
  Alcotest.(check string) "recovered: resolved" "resolved"
    (Alert.state_to_string (state ()));
  Alcotest.(check int) "firing gauge cleared" 0
    (R.Gauge.value (R.gauge ~labels:[ ("rule", "hot") ] "alerts.firing"));
  clock := 140;
  v := 50.0;
  eval ();
  clock := 150;
  v := 0.0;
  eval ();
  Alcotest.(check (list (pair int string)))
    "the full transition history, oldest first"
    [
      (10, "pending");
      (120, "firing");
      (130, "resolved");
      (140, "pending");
      (150, "inactive");
    ]
    (List.map
       (fun (ts, _, st) -> (ts, Alert.state_to_string st))
       (Alert.transitions t))

let test_alert_rate_and_burn () =
  let clock = ref 0 in
  let values : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let set k v = Hashtbl.replace values k v in
  let lookup k = Hashtbl.find_opt values k in
  let t =
    Alert.create ~now:(fun () -> !clock)
      (alert_rules "fast=rate:m:5:1s\nburn=burn:err/req:1s,4s:10%")
  in
  let eval () = ignore (Alert.eval ~lookup t) in
  (* t=0: baselines only *)
  set "m" 0.0;
  set "err" 0.0;
  set "req" 0.0;
  eval ();
  Alcotest.(check (list string)) "one sample is no rate" [] (firing_names t);
  (* the counter climbs 10/s: above the 5/s limit *)
  clock := 1000;
  set "m" 10.0;
  set "err" 5.0;
  set "req" 10.0;
  eval ();
  Alcotest.(check bool) "rate fires on the window delta" true
    (List.mem "fast" (firing_names t));
  (* err/req = 50% over both windows once the long window has history *)
  clock := 2000;
  set "m" 10.5;
  set "err" 10.0;
  set "req" 20.0;
  eval ();
  Alcotest.(check bool) "burn fires when both windows exceed budget" true
    (List.mem "burn" (firing_names t));
  Alcotest.(check bool) "rate resolves when the counter flattens" true
    (not (List.mem "fast" (firing_names t)));
  (* errors stop: the short window recovers first and un-fires the rule
     even while the long window is still above budget *)
  clock := 4000;
  set "err" 10.0;
  set "req" 40.0;
  eval ();
  Alcotest.(check bool) "short-window recovery resolves the burn" true
    (not (List.mem "burn" (firing_names t)))

let test_alert_storm_and_reuse () =
  let clock = ref 100 in
  let t =
    Alert.create ~now:(fun () -> !clock)
      (alert_rules "storm=storm:6:3:1s\nreuse=reuse:2:1s")
  in
  let eval () = ignore (Alert.eval ~lookup:(fun _ -> None) t) in
  let reject code router =
    Alert.observe t ~kind:"access_reject"
      [ ("code", string_of_int code); ("router", router) ]
  in
  (* code-7 rejects before a URL reissue do not arm the reuse detector *)
  reject 7 "r1";
  reject 7 "r1";
  eval ();
  Alcotest.(check (list string)) "reuse quiet before reissue" []
    (firing_names t);
  (* a storm is one source hammering: 2 from r1 + 1 from r2 is not 3 *)
  reject 6 "r1";
  reject 6 "r2";
  reject 6 "r1";
  eval ();
  Alcotest.(check (list string)) "storm counts per source" []
    (firing_names t);
  reject 6 "r1";
  eval ();
  Alcotest.(check (list string)) "third reject from one source fires"
    [ "storm" ] (firing_names t);
  (* after the reissue, code-7 rejects count *)
  Alert.observe t ~kind:"revocation_update" [ ("list", "url") ];
  reject 7 "r1";
  reject 7 "r3";
  eval ();
  Alcotest.(check bool) "reuse fires after reissue" true
    (List.mem "reuse" (firing_names t));
  (* the windows drain: both resolve *)
  clock := !clock + 5_000;
  eval ();
  Alcotest.(check (list string)) "windows drain, rules resolve" []
    (firing_names t);
  Alcotest.(check bool) "resolution recorded" true
    (List.exists
       (fun (_, n, st) -> n = "storm" && st = Alert.Resolved)
       (Alert.transitions t))

let test_alert_anomaly () =
  let clock = ref 0 and v = ref 100.0 in
  let t =
    Alert.create ~now:(fun () -> !clock) (alert_rules "slow=anomaly:m:4")
  in
  let eval () =
    clock := !clock + 1000;
    ignore (Alert.eval ~lookup:(fun _ -> Some !v) t)
  in
  (* a constant signal through warmup never alerts *)
  for _ = 1 to 10 do
    eval ()
  done;
  Alcotest.(check (list string)) "constant signal is not anomalous" []
    (firing_names t);
  (* a 2x spike against a flat history is far beyond z = 4 *)
  v := 200.0;
  eval ();
  Alcotest.(check (list string)) "spike fires" [ "slow" ] (firing_names t);
  Alcotest.(check bool) "z-score is the status value" true
    ((List.hd (Alert.statuses t)).Alert.s_value > 4.0)

let test_alert_replay_and_json () =
  let rules = alert_rules "hot=over:m:5" in
  let timeline =
    String.concat "\n"
      [
        "{\"kind\":\"sample\",\"series\":\"m\",\"ts\":1000,\"v\":1}";
        "not json at all";
        "{\"kind\":\"note\",\"text\":\"ignored\"}";
        "{\"kind\":\"sample\",\"series\":\"m\",\"ts\":2000,\"v\":9}";
        "{\"kind\":\"sample\",\"series\":\"m\",\"ts\":3000,\"v\":2}";
      ]
  in
  (match Alert.replay_timeline rules timeline with
  | Error e -> Alcotest.fail e
  | Ok (t, statuses) ->
    Alcotest.(check (list (pair int string)))
      "the recorded clock drives the firing sequence"
      [ (2000, "firing"); (3000, "resolved") ]
      (List.map
         (fun (ts, _, st) -> (ts, Alert.state_to_string st))
         (Alert.transitions t));
    Alcotest.(check int) "final statuses returned" 1 (List.length statuses);
    (* /alerts body: parseable JSON carrying the status fields *)
    match J.parse (Alert.to_json t) with
    | Error e -> Alcotest.failf "to_json invalid: %s" e
    | Ok j ->
      let alerts =
        match Option.bind (J.member "alerts" j) J.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no alerts array"
      in
      Alcotest.(check int) "one alert object" 1 (List.length alerts);
      let a = List.hd alerts in
      Alcotest.(check (option string)) "rule name" (Some "hot")
        (Option.bind (J.member "rule" a) J.to_str);
      Alcotest.(check (option string)) "state" (Some "resolved")
        (Option.bind (J.member "state" a) J.to_str);
      Alcotest.(check bool) "state filter drops non-matching" true
        (Alert.to_json ~state:Alert.Firing t = "{\"alerts\":[]}"));
  (* a malformed sample line is an error, not a crash *)
  match
    Alert.replay_timeline rules "{\"kind\":\"sample\",\"series\":\"m\"}"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed sample should be an error"

(* --- the alert windows against the list-based reference --- *)

(* The list-based windows that Alert's rings and queues replace, kept
   here as the reference: newest-first sample and event lists, each
   pruned by a rebuild, and a storm's worst source found by counting
   every event's source across the window. On a stream whose timestamps
   never decrease, [Alert.eval] must report the same value and detail
   for every rule after every evaluation, and the same transitions. *)
module Ref_alert = struct
  let duration_to_string ms =
    if ms mod 3_600_000 = 0 then Printf.sprintf "%dh" (ms / 3_600_000)
    else if ms mod 60_000 = 0 then Printf.sprintf "%dm" (ms / 60_000)
    else if ms mod 1000 = 0 then Printf.sprintf "%ds" (ms / 1000)
    else Printf.sprintf "%dms" ms

  let num = J.num_to_string

  let rec prune_keep_one cutoff = function
    | [] -> []
    | (ts, v) :: rest ->
      if ts > cutoff then (ts, v) :: prune_keep_one cutoff rest else [ (ts, v) ]

  let baseline cutoff hist =
    let rec go last = function
      | [] -> last
      | ((ts, _) as s) :: rest -> if ts <= cutoff then Some s else go (Some s) rest
    in
    go None hist

  let delta_over ~now ~window hist =
    match hist with
    | [] -> None
    | (ts_now, v_now) :: _ -> (
      match baseline (now - window) hist with
      | Some (ts0, v0) when ts_now > ts0 -> Some (ts_now - ts0, v_now -. v0)
      | _ -> None)

  type r = {
    rule : Alert.rule;
    mutable st : Alert.state;
    mutable pending_since : int;
    mutable hist : (int * float) list;
    mutable hist2 : (int * float) list;
    mutable events : (int * string) list;
  }

  type t = {
    states : r array;
    mutable reissued : bool;
    mutable trans : (int * string * Alert.state) list;
  }

  let create rules =
    {
      states =
        Array.of_list
          (List.map
             (fun rule ->
               { rule; st = Alert.Inactive; pending_since = 0; hist = []; hist2 = []; events = [] })
             rules);
      reissued = false;
      trans = [];
    }

  let observe t ~now ~kind attrs =
    match kind with
    | "revocation_update" -> if List.assoc_opt "list" attrs = Some "url" then t.reissued <- true
    | "access_reject" ->
      let code = Option.bind (List.assoc_opt "code" attrs) int_of_string_opt in
      let source = Option.value ~default:"?" (List.assoc_opt "router" attrs) in
      Array.iter
        (fun r ->
          let add window_ms =
            let cutoff = now - window_ms in
            r.events <- (now, source) :: List.filter (fun (ts, _) -> ts > cutoff) r.events
          in
          match (r.rule.Alert.r_cond, code) with
          | Alert.Storm { code = want; window_ms; _ }, Some c when c = want -> add window_ms
          | Alert.Reuse { window_ms; _ }, Some 7 when t.reissued -> add window_ms
          | _ -> ())
        t.states
    | _ -> ()

  let check ~now ~lookup r =
    match r.rule.Alert.r_cond with
    | Alert.Rate { metric; per_s; window_ms } -> (
      (match lookup metric with Some v -> r.hist <- (now, v) :: r.hist | None -> ());
      r.hist <- prune_keep_one (now - window_ms) r.hist;
      match delta_over ~now ~window:window_ms r.hist with
      | Some (span_ms, dv) when span_ms > 0 ->
        let rate = dv /. (float_of_int span_ms /. 1000.0) in
        ( rate > per_s,
          rate,
          Printf.sprintf "%s +%s/s over %s (limit %s/s)" metric (num rate)
            (duration_to_string window_ms) (num per_s) )
      | _ -> (false, 0.0, metric ^ ": not enough history"))
    | Alert.Burn { num = n; den; short_ms; long_ms; budget_pct } -> (
      (match lookup n with Some v -> r.hist <- (now, v) :: r.hist | None -> ());
      (match lookup den with Some v -> r.hist2 <- (now, v) :: r.hist2 | None -> ());
      r.hist <- prune_keep_one (now - long_ms) r.hist;
      r.hist2 <- prune_keep_one (now - long_ms) r.hist2;
      let ratio window =
        match (delta_over ~now ~window r.hist, delta_over ~now ~window r.hist2) with
        | Some (_, dn), Some (_, dd) when dd > 0.0 -> Some (100.0 *. dn /. dd)
        | _ -> None
      in
      match (ratio short_ms, ratio long_ms) with
      | Some rs, Some rl ->
        ( rs > budget_pct && rl > budget_pct,
          rs,
          Printf.sprintf "%s/%s = %.2f%% (%s) / %.2f%% (%s), budget %s%%" n den rs
            (duration_to_string short_ms) rl (duration_to_string long_ms) (num budget_pct) )
      | _ -> (false, 0.0, Printf.sprintf "%s/%s: no traffic" n den))
    | Alert.Storm { code; count; window_ms } ->
      let cutoff = now - window_ms in
      r.events <- List.filter (fun (ts, _) -> ts > cutoff) r.events;
      let worst, who =
        List.fold_left
          (fun (best, who) (_, src) ->
            let c = List.length (List.filter (fun (_, s) -> s = src) r.events) in
            if c > best then (c, src) else (best, who))
          (0, "-") r.events
      in
      ( worst >= count,
        float_of_int worst,
        Printf.sprintf "code %d x%d from %s in %s (threshold %d)" code worst who
          (duration_to_string window_ms) count )
    | Alert.Reuse { count; window_ms } ->
      let cutoff = now - window_ms in
      r.events <- List.filter (fun (ts, _) -> ts > cutoff) r.events;
      let n = List.length r.events in
      ( n >= count,
        float_of_int n,
        Printf.sprintf "%d revoked-credential rejects in %s after URL reissue (threshold %d)" n
          (duration_to_string window_ms) count )
    | _ -> Alcotest.fail "reference: rate, burn, storm and reuse only"

  let transition t r ~now active =
    let set st =
      r.st <- st;
      t.trans <- (now, r.rule.Alert.r_name, st) :: t.trans
    in
    match (r.st, active) with
    | (Alert.Inactive | Alert.Resolved), true ->
      r.pending_since <- now;
      set (if r.rule.Alert.r_for_ms <= 0 then Alert.Firing else Alert.Pending)
    | Alert.Pending, true -> if now - r.pending_since >= r.rule.Alert.r_for_ms then set Alert.Firing
    | Alert.Firing, true | (Alert.Inactive | Alert.Resolved), false -> ()
    | Alert.Pending, false -> set Alert.Inactive
    | Alert.Firing, false -> set Alert.Resolved

  let eval t ~now ~lookup =
    Array.to_list
      (Array.map
         (fun r ->
           let active, value, detail = check ~now ~lookup r in
           transition t r ~now active;
           (value, detail))
         t.states)
end

let test_alert_windows_match_reference () =
  let rules =
    alert_rules
      "r1=rate:m1:5:1s\n\
       r2=rate:m2:0.5:300ms:200ms\n\
       b1=burn:err/req:500ms,2s:10%\n\
       b2=burn:err2/req:200ms,1s:25%:100ms\n\
       s1=storm:6:3:500ms\n\
       s2=storm:6:2:1s:200ms\n\
       s3=storm:9:4:2s\n\
       u1=reuse:2:1s\n\
       u2=reuse:3:300ms:100ms"
  in
  for seed = 1 to 12 do
    let rng = Random.State.make [| seed |] in
    let pick a = a.(Random.State.int rng (Array.length a)) in
    let clock = ref 0 in
    let t = Alert.create ~now:(fun () -> !clock) rules in
    let reference = Ref_alert.create rules in
    let values : (string, float) Hashtbl.t = Hashtbl.create 8 in
    let lookup k = Hashtbl.find_opt values k in
    let evals = ref 0 in
    for _ = 1 to 3000 do
      (* about a third of the steps keep the timestamp *)
      if Random.State.int rng 3 > 0 then clock := !clock + 1 + Random.State.int rng 120;
      match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 ->
        let attrs =
          List.filter_map Fun.id
            [
              Option.map (fun c -> ("code", c)) (pick [| Some "6"; Some "6"; Some "7"; Some "9"; Some "x"; None |]);
              Option.map (fun r -> ("router", r)) (pick [| Some "r1"; Some "r2"; Some "r3"; Some "r4"; None |]);
            ]
        in
        Alert.observe t ~kind:"access_reject" attrs;
        Ref_alert.observe reference ~now:!clock ~kind:"access_reject" attrs
      | 4 ->
        let kind, attrs =
          pick
            [|
              ("revocation_update", [ ("list", "url") ]);
              ("revocation_update", [ ("list", "crl") ]);
              ("access_accept", [ ("router", "r1") ]);
            |]
        in
        Alert.observe t ~kind attrs;
        Ref_alert.observe reference ~now:!clock ~kind attrs
      | 5 | 6 ->
        (* counters climb; a series sometimes goes missing *)
        let k = pick [| "m1"; "m2"; "err"; "err2"; "req"; "req" |] in
        if Random.State.int rng 12 = 0 then Hashtbl.remove values k
        else
          Hashtbl.replace values k
            (Option.value ~default:0.0 (Hashtbl.find_opt values k)
            +. float_of_int (Random.State.int rng 20))
      | _ ->
        incr evals;
        let got = Alert.eval ~lookup t in
        let want = Ref_alert.eval reference ~now:!clock ~lookup in
        List.iter2
          (fun s (value, detail) ->
            let where = Printf.sprintf "seed %d, eval %d, %s" seed !evals s.Alert.s_name in
            Alcotest.(check (float 0.0)) (where ^ " value") value s.Alert.s_value;
            Alcotest.(check string) (where ^ " detail") detail s.Alert.s_detail)
          got want
    done;
    Alcotest.(check (list (triple int string string)))
      (Printf.sprintf "seed %d transitions" seed)
      (List.rev_map (fun (ts, n, st) -> (ts, n, Alert.state_to_string st)) reference.Ref_alert.trans)
      (List.map (fun (ts, n, st) -> (ts, n, Alert.state_to_string st)) (Alert.transitions t))
  done

(* 8 000 code-6 rejects from one router, all inside a storm rule's 30 s
   window *)
let storm_of_8000 () =
  let clock = ref 0 in
  let t = Alert.create ~now:(fun () -> !clock) (alert_rules "storm=storm:6:20:30s") in
  for i = 1 to 8000 do
    clock := 3 * i;
    Alert.observe t ~kind:"access_reject" [ ("code", "6"); ("router", "r1") ]
  done;
  (t, clock)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_alert_storm_eval_cost () =
  let t, _ = storm_of_8000 () in
  let eval () = ignore (Alert.eval ~lookup:(fun _ -> None) t) in
  eval ();
  let words = minor_words eval in
  Alcotest.(check bool)
    (Printf.sprintf "one evaluation allocates %.0f words, under 10 000" words)
    true (words < 10_000.0);
  Alcotest.(check (list string)) "the storm fires" [ "storm" ] (firing_names t)

let test_alert_storm_observe_cost () =
  let t, clock = storm_of_8000 () in
  incr clock;
  let words =
    minor_words (fun () ->
        Alert.observe t ~kind:"access_reject" [ ("code", "6"); ("router", "r1") ])
  in
  Alcotest.(check bool)
    (Printf.sprintf "one observe allocates %.0f words, under 100" words)
    true (words < 100.0)

let test_alert_history_cost () =
  (* the stock rules, one evaluation per simulated ms against a fixed
     lookup: the burn rule's histories grow towards its 1 min window *)
  let clock = ref 0 in
  let t =
    Alert.create ~now:(fun () -> !clock) (alert_rules Peace_service.Authority.default_alert_rules)
  in
  let eval () = ignore (Alert.eval ~lookup:(fun _ -> Some 1.0) t) in
  let words_at = Hashtbl.create 2 in
  for i = 1 to 20_000 do
    incr clock;
    if i = 100 || i = 20_000 then Hashtbl.replace words_at i (minor_words eval) else eval ()
  done;
  let w100 = Hashtbl.find words_at 100 and w20k = Hashtbl.find words_at 20_000 in
  Alcotest.(check bool)
    (Printf.sprintf "evaluation 20 000 allocates %.0f words, evaluation 100 %.0f" w20k w100)
    true
    (w20k <= 1.5 *. w100)

let test_registry_lookup () =
  R.Counter.add (R.counter "test.lookup.plain") 5;
  Alcotest.(check (option (float 1e-9))) "exact counter" (Some 5.0)
    (R.lookup "test.lookup.plain");
  R.Gauge.set (R.gauge "test.lookup.gauge") 7;
  Alcotest.(check (option (float 1e-9))) "exact gauge" (Some 7.0)
    (R.lookup "test.lookup.gauge");
  R.Counter.add (R.counter ~labels:[ ("k", "a") ] "test.lookup.fam") 3;
  R.Counter.add (R.counter ~labels:[ ("k", "b") ] "test.lookup.fam") 4;
  Alcotest.(check (option (float 1e-9))) "label series sum by base name"
    (Some 7.0)
    (R.lookup "test.lookup.fam");
  let h = R.histogram "test.lookup.hist" in
  R.Histogram.observe h 10;
  R.Histogram.observe h 20;
  (match R.lookup "test.lookup.hist" with
  | Some mean -> Alcotest.(check bool) "histogram mean" true (mean > 0.0)
  | None -> Alcotest.fail "histogram lookup returned no data");
  Alcotest.(check (option (float 1e-9))) "unknown name is None" None
    (R.lookup "test.lookup.nothing")

(* --- /flight?label, /audit?since edges, /alerts over HTTP --- *)

let test_serve_alerts_and_filters () =
  Log.clear ();
  Log.warn ~attrs:[ ("router", "r1") ] "from r1";
  Log.warn ~attrs:[ ("router", "r2") ] "from r2";
  let ledger = Audit.create ~checkpoint_every:1000 () in
  Audit.install (Some ledger);
  Audit.emit ~kind:"access_reject" [ ("code", "6"); ("router", "1") ];
  Serve.set_alerts_source None;
  let port = Atomic.make 0 in
  let server =
    Domain.spawn (fun () ->
        Serve.serve ~port:0 ~max_requests:10
          ~on_listen:(fun p -> Atomic.set port p)
          ())
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.set_alerts_source None;
      Audit.install None)
    (fun () ->
      let rec wait_port tries =
        if Atomic.get port = 0 then
          if tries = 0 then Alcotest.fail "server never listened"
          else begin
            Unix.sleepf 0.01;
            wait_port (tries - 1)
          end
      in
      wait_port 500;
      let get path =
        match Serve.http_get ~port:(Atomic.get port) path with
        | Ok r -> r
        | Error e -> Alcotest.failf "GET %s: %s" path e
      in
      let infix a s = Astring.String.is_infix ~affix:a s in
      let code, body = get "/flight?label=router:r1" in
      Alcotest.(check int) "label filter answers 200" 200 code;
      Alcotest.(check bool) "only the matching entry survives" true
        (infix "from r1" body && not (infix "from r2" body));
      let code, body = get "/flight?label=nocolon" in
      Alcotest.(check int) "malformed label is 400" 400 code;
      Alcotest.(check bool) "…and says what it wants" true
        (infix "KEY:VALUE" body);
      let code, body = get "/audit?since=abc" in
      Alcotest.(check int) "non-numeric since is 400" 400 code;
      Alcotest.(check bool) "…with a reason" true (infix "integer" body);
      let code, body = get "/audit?since=-5" in
      Alcotest.(check int) "negative since answers 200" 200 code;
      Alcotest.(check bool) "…replaying everything" true
        (infix "access_reject" body);
      let code, body = get "/audit?since=99999" in
      Alcotest.(check int) "since beyond head answers 200" 200 code;
      Alcotest.(check string) "…with an empty body" "" body;
      let code, body = get "/alerts" in
      Alcotest.(check int) "no evaluator: 404" 404 code;
      Alcotest.(check bool) "…and says so" true (infix "no alert" body);
      let t = Alert.create (alert_rules "storm=storm:6:1:1m") in
      Alert.install_tap t;
      Audit.emit ~kind:"access_reject" [ ("code", "6"); ("router", "1") ];
      ignore (Alert.eval ~lookup:(fun _ -> None) t);
      Alert.uninstall_tap ();
      Serve.set_alerts_source (Some t);
      let code, body = get "/alerts" in
      Alcotest.(check int) "attached evaluator answers 200" 200 code;
      Alcotest.(check bool) "statuses rendered as JSON" true
        (infix "\"rule\":\"storm\"" body && infix "\"state\":\"firing\"" body);
      let code, body = get "/alerts?state=firing" in
      Alcotest.(check int) "state filter answers 200" 200 code;
      Alcotest.(check bool) "firing subset" true (infix "\"storm\"" body);
      let code, body = get "/alerts?state=resolved" in
      Alcotest.(check int) "empty filter still 200" 200 code;
      Alcotest.(check bool) "…with an empty list" true
        (infix "{\"alerts\":[]}" body);
      let code, body = get "/alerts?state=bogus" in
      Alcotest.(check int) "unknown state is 400" 400 code;
      Alcotest.(check bool) "…named as such" true (infix "unknown" body);
      match Domain.join server with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "server errored: %s" msg)

let () =
  Alcotest.run "peace-obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "counter concurrent exactness" `Quick test_counter_concurrent;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "enumeration and delta" `Quick test_registry_enumeration_and_delta;
          Alcotest.test_case "values are independent" `Quick
            test_registry_values_independent;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick test_span_histogram_and_exceptions;
          Alcotest.test_case "span histogram without a collector" `Quick
            test_span_histogram_without_collector;
          Alcotest.test_case "attr escaping" `Quick test_span_attrs_escaping;
          Alcotest.test_case "explicit handles" `Quick test_span_handles;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "ring wraparound/downsampling" `Quick test_series_wraparound;
          Alcotest.test_case "sampler clock + exporters" `Quick test_sampler_clock_and_export;
          Alcotest.test_case "sparkline" `Quick test_sparkline;
        ] );
      ( "export",
        [
          Alcotest.test_case "json escaping" `Quick test_json_escape;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "results document round-trip" `Quick
            test_results_document;
          Alcotest.test_case "utf-16 surrogate pairs" `Quick
            test_json_surrogates;
        ] );
      ( "labels",
        [
          Alcotest.test_case "labeled series + escaping" `Quick test_labels;
          Alcotest.test_case "log-bucket boundaries" `Quick test_histogram_buckets;
        ] );
      ( "profile",
        [
          Alcotest.test_case "call tree + op attribution" `Quick test_profile_tree;
          Alcotest.test_case "per-domain shards merge" `Quick test_profile_multidomain;
          Alcotest.test_case "spans across domains" `Quick test_profile_cross_domain;
          Alcotest.test_case "concurrent finish emits once" `Quick test_concurrent_finish;
        ] );
      ( "expo",
        [
          Alcotest.test_case "chrome trace JSON" `Quick test_chrome_export;
          Alcotest.test_case "span jsonl golden lines" `Quick test_jsonl_golden;
          Alcotest.test_case "span jsonl across domains" `Quick
            test_jsonl_to_domains;
          Alcotest.test_case "folded stacks" `Quick test_folded_export;
          Alcotest.test_case "prometheus text" `Quick test_prometheus_exposition;
          Alcotest.test_case "registry summary" `Quick test_summary;
        ] );
      ( "serve",
        [
          Alcotest.test_case "port in use is a clean error" `Quick
            test_serve_addr_in_use;
          Alcotest.test_case "survives client disconnects" `Quick
            test_serve_survives_client_disconnect;
          Alcotest.test_case "query parsing" `Quick test_query_parsing;
          Alcotest.test_case "healthz/flight/series live surface" `Quick
            test_live_ops_endpoints;
        ] );
      ( "log",
        [
          Alcotest.test_case "flight-recorder ring" `Quick test_log_ring;
          Alcotest.test_case "levels and counters" `Quick
            test_log_levels_and_counters;
          Alcotest.test_case "min-level floor" `Quick test_log_min_level;
          Alcotest.test_case "jsonl" `Quick test_log_jsonl;
          Alcotest.test_case "label filter" `Quick test_log_label_filter;
        ] );
      ( "audit",
        [
          Alcotest.test_case "chain round-trip" `Quick
            test_audit_chain_roundtrip;
          Alcotest.test_case "since replay" `Quick test_audit_since;
          Alcotest.test_case "byte flip detected" `Quick
            test_audit_tamper_flip;
          Alcotest.test_case "truncation detected" `Quick
            test_audit_tamper_truncate;
          Alcotest.test_case "reorder detected" `Quick
            test_audit_tamper_reorder;
          Alcotest.test_case "forged checkpoint signature detected" `Quick
            test_audit_tamper_signature;
          Alcotest.test_case "one verifier for both curves" `Quick
            test_audit_verifier_curves;
          Alcotest.test_case "installed ledger and emit" `Quick
            test_audit_installed_emit;
        ] );
      ( "alert",
        [
          Alcotest.test_case "spec grammar round-trip" `Quick
            test_alert_grammar;
          Alcotest.test_case "threshold state machine" `Quick
            test_alert_threshold_states;
          Alcotest.test_case "rate + multi-window burn" `Quick
            test_alert_rate_and_burn;
          Alcotest.test_case "reject storm + revoked reuse" `Quick
            test_alert_storm_and_reuse;
          Alcotest.test_case "latency anomaly (EWMA z)" `Quick
            test_alert_anomaly;
          Alcotest.test_case "windows match the list reference" `Quick
            test_alert_windows_match_reference;
          Alcotest.test_case "storm evaluation cost" `Quick
            test_alert_storm_eval_cost;
          Alcotest.test_case "storm observe cost" `Quick
            test_alert_storm_observe_cost;
          Alcotest.test_case "history cost flat" `Quick test_alert_history_cost;
          Alcotest.test_case "timeline replay + /alerts JSON" `Quick
            test_alert_replay_and_json;
          Alcotest.test_case "registry lookup resolution" `Quick
            test_registry_lookup;
          Alcotest.test_case "/flight label, /audit since, /alerts HTTP"
            `Quick test_serve_alerts_and_filters;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "counter families" `Quick test_counter_family;
          Alcotest.test_case "gc/memory sampling" `Quick test_runtime_sample;
        ] );
    ]
