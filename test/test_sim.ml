(* Simulator tests: event queue/engine determinism, radio model, and smoke
   runs of every scenario checking the security-critical outcomes. *)

open Peace_sim

let test_event_queue () =
  let q = Event_queue.create () in
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Event_queue.push q ~time:30 "c";
  Event_queue.push q ~time:10 "a";
  Event_queue.push q ~time:20 "b";
  Event_queue.push q ~time:10 "a2";
  Alcotest.(check int) "size" 4 (Event_queue.size q);
  Alcotest.(check (option int)) "peek" (Some 10) (Event_queue.peek_time q);
  let order = List.init 4 (fun _ -> Event_queue.pop q) in
  Alcotest.(check (list (option (pair int string))))
    "fifo within equal times"
    [ Some (10, "a"); Some (10, "a2"); Some (20, "b"); Some (30, "c") ]
    order;
  Alcotest.(check (option (pair int string))) "empty pop" None (Event_queue.pop q)

let test_engine () =
  let engine = Engine.create ~start:0 () in
  let log = ref [] in
  Engine.schedule engine ~delay:100 (fun () -> log := "b" :: !log);
  Engine.schedule engine ~delay:50 (fun () ->
      log := "a" :: !log;
      (* events may schedule more events *)
      Engine.schedule engine ~delay:10 (fun () -> log := "a'" :: !log));
  Engine.schedule engine ~delay:200 (fun () -> log := "c" :: !log);
  Engine.run ~until:150 engine;
  Alcotest.(check (list string)) "order up to horizon" [ "b"; "a'"; "a" ] !log;
  Alcotest.(check int) "clock landed on horizon" 150 (Engine.now engine);
  Alcotest.(check int) "c still pending" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list string)) "c ran" [ "c"; "b"; "a'"; "a" ] !log;
  Alcotest.(check int) "clock at last event" 200 (Engine.now engine)

let test_engine_periodic () =
  let engine = Engine.create ~start:0 () in
  let ticks = ref 0 in
  Engine.schedule_every engine ~period:10 ~until:55 (fun () -> incr ticks);
  Engine.run ~until:100 engine;
  (* ticks at 10,20,30,40,50 and one final at 60 > 55 stops *)
  Alcotest.(check bool) "about 5 ticks" true (!ticks >= 5 && !ticks <= 6)

let test_net_delivery () =
  let engine = Engine.create ~start:0 () in
  let net = Net.create engine () in
  let received = ref [] in
  Net.register net 1 ~pos:(0.0, 0.0) (fun m -> received := ("n1", m) :: !received);
  Net.register net 2 ~pos:(100.0, 0.0) (fun m -> received := ("n2", m) :: !received);
  Net.register net 3 ~pos:(5000.0, 0.0) (fun m -> received := ("n3", m) :: !received);
  Net.send net ~src:1 ~dst:2 "hello";
  Engine.run engine;
  Alcotest.(check (list (pair string string))) "delivered" [ ("n2", "hello") ] !received;
  Alcotest.(check int) "bytes counted" 5 (Net.bytes_sent net);
  (* broadcast respects range *)
  received := [];
  Net.broadcast net ~src:1 ~range:500.0 "beacon";
  Engine.run engine;
  Alcotest.(check (list (pair string string))) "only in-range node" [ ("n2", "beacon") ] !received;
  (* a lossy link drops frames, and the link counts the loss *)
  let link =
    match Faults.of_string "loss:1.0" with
    | Ok plan -> Faults.link plan
    | Error e -> Alcotest.fail e
  in
  let lossy = Net.create engine ~faults:link () in
  Net.register lossy 1 ~pos:(0.0, 0.0) (fun _ -> ());
  Net.register lossy 2 ~pos:(1.0, 0.0) (fun _ -> Alcotest.fail "lost frame delivered");
  Net.send lossy ~src:1 ~dst:2 "x";
  Engine.run engine;
  Alcotest.(check int) "loss counted" 1 (List.assoc "lost" (Faults.counters link))

let test_sim_rand () =
  let r = Sim_rand.create ~seed:7 in
  for _ = 1 to 100 do
    let v = Sim_rand.int r 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let f = Sim_rand.float r 1.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 1.0);
    let e = Sim_rand.exponential r ~mean:5.0 in
    Alcotest.(check bool) "exponential positive" true (e >= 0.0)
  done;
  (* determinism *)
  let a = Sim_rand.create ~seed:3 and b = Sim_rand.create ~seed:3 in
  Alcotest.(check (list int)) "deterministic"
    (List.init 10 (fun _ -> Sim_rand.int a 1000))
    (List.init 10 (fun _ -> Sim_rand.int b 1000))

module Registry = Peace_obs.Registry

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* floats compared by [=], printed to the last digit *)
let exact = Alcotest.testable (fun ppf x -> Format.fprintf ppf "%.17g" x) ( = )

(* a scenario's store: a registry value of its own, read without
   creating anything *)
let test_metrics () =
  let m = Registry.create () in
  let incr name = Registry.Counter.incr (Registry.counter ~registry:m name) in
  incr "x";
  incr "x";
  for _ = 1 to 5 do
    incr "y"
  done;
  let lookup = Registry.lookup ~registry:m in
  Alcotest.(check (option (float 0.0))) "count" (Some 2.0) (lookup "x");
  Alcotest.(check (option (float 0.0))) "count y" (Some 5.0) (lookup "y");
  Alcotest.(check (option (float 0.0))) "unknown" None (lookup "z");
  Alcotest.(check (list (pair string int))) "counters sorted by name"
    [ ("x", 2); ("y", 5) ] (Registry.counters ~registry:m ());
  let lat = Registry.histogram ~registry:m "lat" in
  List.iter (Registry.Histogram.observe lat) [ 1; 2; 3; 4; 100 ];
  Alcotest.(check (option (float 0.0))) "mean" (Some 22.0) (lookup "lat");
  Alcotest.(check (list (pair string int))) "reads created no counter"
    [ ("x", 2); ("y", 5) ] (Registry.counters ~registry:m ());
  let p = Registry.percentile (sorted [ 1.0; 2.0; 3.0; 4.0; 100.0 ]) 50.0 in
  Alcotest.(check bool) "median sane" true (p >= 2.0 && p <= 4.0)

let test_percentile_edges () =
  let pct l p = Registry.percentile (sorted l) p in
  (* no samples: 0 at any p *)
  Alcotest.(check (float 0.0)) "empty series" 0.0 (pct [] 50.0);
  Alcotest.(check (float 0.0)) "empty series p=0" 0.0 (pct [] 0.0);
  (* single sample: every percentile is that sample *)
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "single sample p=%.0f" p)
        7.5 (pct [ 7.5 ] p))
    [ 0.0; 50.0; 95.0; 100.0 ];
  (* p=0 is the minimum, p=100 the maximum, never out of range *)
  let lat = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check (float 0.0)) "p=0 is the min" 1.0 (pct lat 0.0);
  Alcotest.(check (float 0.0)) "p=100 is the max" 5.0 (pct lat 100.0);
  Alcotest.(check (float 0.0)) "p<0 clamps to the min" 1.0 (pct lat (-5.0));
  Alcotest.(check (float 0.0)) "p>100 clamps to the max" 5.0 (pct lat 150.0);
  (* interpolated ranks (linear between closest ranks, numpy default):
     on [1..5], p25 -> rank 1.0 -> 2.0; p90 -> rank 3.6 -> 4.6;
     p95 -> rank 3.8 -> 4.8 *)
  Alcotest.(check (float 1e-9)) "p25 interpolates" 2.0 (pct lat 25.0);
  Alcotest.(check (float 1e-9)) "p90 interpolates" 4.6 (pct lat 90.0);
  Alcotest.(check (float 1e-9)) "p95 interpolates" 4.8 (pct lat 95.0);
  (* between two samples the median is their midpoint *)
  Alcotest.(check (float 1e-9)) "even-count median" 15.0
    (pct [ 10.0; 20.0 ] 50.0);
  (* the blend is a + frac·(b − a): on [1; 6] p95 is 5.75 exactly, where
     a·(1 − frac) + b·frac reads 5.7499999999999991 *)
  Alcotest.check exact "blend rounds as a + frac(b - a)" 5.75
    (pct [ 6.0; 1.0 ] 95.0)

(* handles + explicit ids stitch spans across engine events — the exact
   mechanism the scenarios use for cross-message traces *)
let test_span_stitching_across_schedule () =
  let lines = ref [] in
  Peace_obs.Trace.set_collector
    (Some (Peace_obs.Expo.jsonl_to (fun l -> lines := l :: !lines)));
  Fun.protect ~finally:(fun () -> Peace_obs.Trace.set_collector None) (fun () ->
      let engine = Engine.create ~start:0 () in
      let root = ref None in
      Engine.schedule engine ~delay:10 (fun () ->
          root :=
            Some (Peace_obs.Trace.start ~ts:(Engine.now engine) "t.root"));
      Engine.schedule engine ~delay:20 (fun () ->
          (* a different event, same causal request: parent by id *)
          let r = Option.get !root in
          let child =
            Peace_obs.Trace.start
              ~parent:(Peace_obs.Trace.id r)
              ~ts:(Engine.now engine) "t.child"
          in
          Engine.schedule engine ~delay:15 (fun () ->
              Peace_obs.Trace.finish ~ts:(Engine.now engine) child;
              Peace_obs.Trace.finish ~ts:(Engine.now engine) r));
      Engine.run engine);
  let lines = List.rev !lines in
  Alcotest.(check int) "2 B + 2 E" 4 (List.length lines);
  (* fixed field order in the trace emitter makes substring scans safe *)
  let contains l pat =
    let n = String.length pat in
    let rec go i =
      i + n <= String.length l && (String.sub l i n = pat || go (i + 1))
    in
    go 0
  in
  let find pat = List.find (fun l -> contains l pat) lines in
  let b_root = find "\"ev\":\"B\",\"name\":\"t.root\"" in
  let b_child = find "\"ev\":\"B\",\"name\":\"t.child\"" in
  let e_child = find "\"ev\":\"E\",\"name\":\"t.child\"" in
  let field l key =
    let pat = "\"" ^ key ^ "\":" in
    let n = String.length pat in
    let rec start i =
      if i + n > String.length l then Alcotest.failf "no %s in %s" key l
      else if String.sub l i n = pat then i + n
      else start (i + 1)
    in
    let i = start 0 in
    let j = ref i in
    while
      !j < String.length l
      && match l.[!j] with '0' .. '9' | '-' -> true | _ -> false
    do
      incr j
    done;
    int_of_string (String.sub l i (!j - i))
  in
  Alcotest.(check int) "child parented on root across events"
    (field b_root "id") (field b_child "parent");
  Alcotest.(check int) "timestamps are simulated ms" 10 (field b_root "ts_ns");
  Alcotest.(check int) "duration in simulated ms" 15 (field e_child "dur_ns")

let test_attach_sampler_simulated_time () =
  let sampler = Peace_obs.Timeseries.create () in
  let v = ref 0.0 in
  let series = Peace_obs.Timeseries.track sampler "t.gauge" (fun () -> !v) in
  let engine = Engine.create ~start:0 () in
  Engine.schedule_every engine ~period:250 ~until:2_000 (fun () -> v := !v +. 1.0);
  Engine.attach_sampler engine ~period:1_000 ~until:3_000 sampler;
  Engine.run ~until:4_000 engine;
  let pts = Peace_obs.Timeseries.Series.points series in
  (* one immediate sample at t=0, then t=1000, 2000, 3000 *)
  Alcotest.(check (list int)) "sampled on the simulated clock"
    [ 0; 1_000; 2_000; 3_000 ]
    (List.map fst pts);
  Alcotest.(check bool) "values advance with simulated work" true
    (match pts with (_, a) :: rest -> List.for_all (fun (_, b) -> b >= a) rest | [] -> false)

let test_attack_matrix () =
  let m = Scenario.attack_matrix ~seed:5 ~attempts_per_class:3 () in
  Alcotest.(check int) "outsider never accepted" 0 m.Scenario.am_outsider_accepted;
  Alcotest.(check int) "revoked never accepted" 0 m.Scenario.am_revoked_accepted;
  Alcotest.(check int) "replay never accepted" 0 m.Scenario.am_replay_accepted;
  Alcotest.(check int) "rogue beacon never accepted" 0 m.Scenario.am_rogue_beacons_accepted;
  Alcotest.(check int) "legit always accepted" 3 m.Scenario.am_legit_accepted

let test_city_smoke () =
  let r =
    Scenario.city_auth ~seed:11 ~n_routers:2 ~n_users:6 ~duration_ms:30_000
      ~mean_interarrival_ms:8_000.0 ()
  in
  Alcotest.(check bool) "some attempts" true (r.Scenario.cr_attempts > 0);
  Alcotest.(check bool) "some successes" true (r.Scenario.cr_successes > 0);
  Alcotest.(check bool) "successes <= attempts" true
    (r.Scenario.cr_successes <= r.Scenario.cr_attempts);
  Alcotest.(check bool) "bytes on air" true (r.Scenario.cr_bytes_on_air > 0);
  Alcotest.(check bool) "handshake latency positive" true
    (r.Scenario.cr_handshake_mean_ms > 0.0);
  (* determinism: same seed, same outcome *)
  let r2 =
    Scenario.city_auth ~seed:11 ~n_routers:2 ~n_users:6 ~duration_ms:30_000
      ~mean_interarrival_ms:8_000.0 ()
  in
  Alcotest.(check int) "deterministic attempts" r.Scenario.cr_attempts r2.Scenario.cr_attempts;
  Alcotest.(check int) "deterministic successes" r.Scenario.cr_successes r2.Scenario.cr_successes

(* any collector opens the simulator's sim-time spans, and those spans
   stay out of the nanosecond histograms: their durations are simulated
   milliseconds *)
let test_city_spans_for_any_collector () =
  let h = Peace_obs.Registry.histogram "sim.handshake_ns" in
  let before = Peace_obs.Registry.Histogram.count h in
  let r = Peace_obs.Expo.recorder () in
  Peace_obs.Trace.set_collector (Some (Peace_obs.Expo.record r));
  let report =
    Fun.protect ~finally:(fun () -> Peace_obs.Trace.set_collector None)
      (fun () ->
        Scenario.city_auth ~seed:11 ~n_routers:2 ~n_users:6 ~duration_ms:30_000
          ~mean_interarrival_ms:8_000.0 ())
  in
  let roots =
    List.filter
      (fun (ev, _) ->
        match ev with
        | Peace_obs.Trace.Begin { name = "sim.handshake"; parent = None; _ } ->
          true
        | _ -> false)
      (Peace_obs.Expo.events r)
  in
  Alcotest.(check bool) "some attempts" true (report.Scenario.cr_attempts > 0);
  Alcotest.(check int) "one sim.handshake root per attempt"
    report.Scenario.cr_attempts (List.length roots);
  Alcotest.(check int) "no simulated ms in the ns histogram" before
    (Peace_obs.Registry.Histogram.count h)

let test_dos_smoke () =
  let without =
    Scenario.dos_attack ~seed:21 ~puzzles:false ~attack_rate_per_s:40.0
      ~legit_rate_per_s:1.0 ~duration_ms:20_000 ()
  in
  let with_puzzles =
    (* a modest attacker device: 10k hashes/s, so difficulty 12 caps its
       request rate at ~2.4/s against the 40/s it attempts *)
    Scenario.dos_attack ~seed:21 ~puzzles:true ~puzzle_difficulty:12
      ~attacker_hash_rate_per_ms:10.0 ~attack_rate_per_s:40.0
      ~legit_rate_per_s:1.0 ~duration_ms:20_000 ()
  in
  Alcotest.(check bool) "flood reached the router" true
    (without.Scenario.dr_bogus_received > 50);
  (* puzzles slash the expensive verification load *)
  Alcotest.(check bool) "puzzles reduce verifications" true
    (with_puzzles.Scenario.dr_expensive_verifications
    < without.Scenario.dr_expensive_verifications / 2);
  (* and force the attacker to burn hash work *)
  Alcotest.(check bool) "attacker pays hashes" true
    (with_puzzles.Scenario.dr_attacker_hashes > 0);
  Alcotest.(check int) "no attacker hashes without puzzles" 0
    without.Scenario.dr_attacker_hashes;
  (* legitimate users still succeed under puzzles *)
  Alcotest.(check bool) "legit users pass with puzzles" true
    (with_puzzles.Scenario.dr_legit_successes > 0)

let test_phishing_smoke () =
  let r =
    Scenario.phishing ~seed:31 ~crl_refresh_ms:60_000 ~revoke_at_ms:123_000
      ~duration_ms:400_000 ~attempt_period_ms:10_000 ()
  in
  Alcotest.(check bool) "worked before revocation" true
    (r.Scenario.pr_accepted_before_revocation > 0);
  Alcotest.(check int) "never accepted after refresh" 0
    r.Scenario.pr_accepted_after_refresh;
  (* phishing DOES succeed inside the stale window... *)
  Alcotest.(check bool) "window exists" true (r.Scenario.pr_accepted_in_window > 0);
  (* ...but the exposure window is bounded by the refresh period *)
  Alcotest.(check bool) "window bounded by refresh" true
    (r.Scenario.pr_window_ms <= 60_000)

let test_city_with_losses () =
  (* a 15%-loss radio still converges: interrupted handshakes retry *)
  let faults =
    match Faults.of_string "loss:0.15" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r =
    Scenario.city_auth ~seed:13 ~n_routers:2 ~n_users:6 ~faults
      ~area_m:800.0 ~range_m:600.0 ~duration_ms:40_000
      ~mean_interarrival_ms:8_000.0 ()
  in
  Alcotest.(check bool) "attempts happened" true (r.Scenario.cr_attempts > 0);
  Alcotest.(check bool) "most attempts still succeed" true
    (float_of_int r.Scenario.cr_successes
    >= 0.5 *. float_of_int r.Scenario.cr_attempts)

(* --- fault injection (E15) --- *)

let test_faults_spec () =
  (* round-trip through the canonical form *)
  let specs =
    [
      "none";
      "loss:0.2";
      "burst:0.05:0.3:0.8";
      "burst:0.05:0.3:0.8:0.01,dup:0.02,reorder:0.1:40,corrupt:0.01";
      "churn:8000:2000,stale:15000";
    ]
  in
  List.iter
    (fun spec ->
      match Faults.of_string spec with
      | Error msg -> Alcotest.failf "spec %S rejected: %s" spec msg
      | Ok plan -> (
        let canon = Faults.to_string plan in
        match Faults.of_string canon with
        | Error msg -> Alcotest.failf "canonical %S rejected: %s" canon msg
        | Ok plan2 ->
          Alcotest.(check bool)
            (Printf.sprintf "round-trip %S" spec)
            true (plan = plan2)))
    specs;
  Alcotest.(check bool) "none is none" true
    (Faults.is_none Faults.none);
  (* malformed specs are Errors, not exceptions *)
  List.iter
    (fun bad ->
      match Faults.of_string bad with
      | Ok _ -> Alcotest.failf "bad spec %S accepted" bad
      | Error _ -> ())
    [ "bogus"; "loss:2.0"; "loss:x"; "burst:0.1"; "churn:0:100"; "dup:"; "" ]

let test_faults_link_deterministic () =
  let plan =
    match Faults.of_string "burst:0.2:0.3:0.6:0.05,dup:0.1,corrupt:0.2"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let run () =
    let link = Faults.link ~seed:7 plan in
    let out =
      List.init 300 (fun i ->
          Faults.transmit link (Printf.sprintf "frame-%04d-payload" i))
    in
    (out, Faults.counters link)
  in
  let out1, c1 = run () and out2, c2 = run () in
  Alcotest.(check bool) "identical delivery sequence" true (out1 = out2);
  Alcotest.(check bool) "identical counters" true (c1 = c2);
  Alcotest.(check bool) "some frames lost" true
    (List.assoc "lost" c1 > 0);
  Alcotest.(check bool) "some frames corrupted" true
    (List.assoc "corrupted" c1 > 0);
  (* corrupted deliveries differ from the original payload *)
  let corrupt_seen =
    List.exists2
      (fun i deliveries ->
        ignore i;
        List.exists
          (fun (_, payload) ->
            String.length payload > 0
            && not (String.length payload = 18 && String.sub payload 0 6 = "frame-"))
          deliveries)
      (List.init 300 Fun.id) out1
  in
  ignore corrupt_seen

let burst20 =
  (* stationary bad-state fraction 0.4, mean loss ≈ 0.4·0.6 + 0.6·0.05 = 27% *)
  match Faults.of_string "burst:0.2:0.3:0.6:0.05" with
  | Ok p -> p
  | Error e -> failwith e

let run_city ?faults ?hardened () =
  Scenario.city_auth ~seed:13 ?faults ?hardened ~n_routers:2 ~n_users:6
    ~area_m:800.0 ~range_m:600.0 ~duration_ms:40_000
    ~mean_interarrival_ms:8_000.0 ()

let test_city_faults_deterministic () =
  (* identical seed + identical plan ⇒ bit-identical result *)
  let r1 = run_city ~faults:burst20 () and r2 = run_city ~faults:burst20 () in
  Alcotest.(check bool) "identical city_result" true (r1 = r2);
  (* an explicit empty plan reproduces the no-faults run exactly *)
  let plain = run_city () and with_none = run_city ~faults:Faults.none () in
  Alcotest.(check bool) "Faults.none is bit-identical to no faults" true
    (plain = with_none)

let test_city_hardened_beats_baseline () =
  (* the E15 acceptance bar: under >=20% burst loss the hardened handshake
     path completes strictly more authentications. Full-size city — at toy
     scale both paths have enough slack time to converge. *)
  let run hardened =
    Scenario.city_auth ~seed:42 ~faults:burst20 ~hardened ~n_routers:4
      ~n_users:20 ~area_m:1500.0 ~range_m:600.0 ~duration_ms:60_000
      ~mean_interarrival_ms:10_000.0 ()
  in
  let hard = run true in
  let base = run false in
  Alcotest.(check bool)
    (Printf.sprintf "hardened %d > baseline %d successes"
       hard.Scenario.cr_successes base.Scenario.cr_successes)
    true
    (hard.Scenario.cr_successes > base.Scenario.cr_successes);
  Alcotest.(check bool) "hardening retransmitted" true
    (hard.Scenario.cr_retransmissions > 0);
  Alcotest.(check int) "baseline never retransmits" 0
    base.Scenario.cr_retransmissions;
  Alcotest.(check bool) "losses were injected" true
    (List.assoc "lost" hard.Scenario.cr_fault_counters > 0)

let test_city_corruption_rejected_not_fatal () =
  (* heavy corruption + duplication + reordering: frames must be rejected
     at parse/verify, never crash the run *)
  let faults =
    match Faults.of_string "corrupt:0.3,dup:0.2,reorder:0.2:50" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r = run_city ~faults () in
  Alcotest.(check bool) "corrupted frames occurred" true
    (List.assoc "corrupted" r.Scenario.cr_fault_counters > 0);
  Alcotest.(check bool) "duplicates occurred" true
    (List.assoc "duplicated" r.Scenario.cr_fault_counters > 0);
  Alcotest.(check bool) "still authenticates through the noise" true
    (r.Scenario.cr_successes > 0)

let test_city_churn_recovers () =
  let faults =
    match Faults.of_string "churn:9000:2500" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r =
    Scenario.city_auth ~seed:17 ~faults ~n_routers:3 ~n_users:8
      ~area_m:600.0 ~range_m:2_000.0 ~duration_ms:60_000
      ~mean_interarrival_ms:6_000.0 ()
  in
  Alcotest.(check bool) "routers crashed" true
    (List.assoc "crashes" r.Scenario.cr_fault_counters > 0);
  Alcotest.(check bool) "routers restarted" true
    (List.assoc "restarts" r.Scenario.cr_fault_counters > 0);
  Alcotest.(check bool) "most attempts still succeed" true
    (float_of_int r.Scenario.cr_successes
    >= 0.5 *. float_of_int r.Scenario.cr_attempts)

let test_city_stale_partition () =
  (* every user hears every router, so after the mid-run revocation the
     frozen-list router is reachable and its stale admissions are counted *)
  let faults =
    match Faults.of_string "stale:5000" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r =
    Scenario.city_auth ~seed:19 ~faults ~n_routers:2 ~n_users:6
      ~area_m:400.0 ~range_m:2_000.0 ~duration_ms:90_000
      ~mean_interarrival_ms:5_000.0 ()
  in
  Alcotest.(check bool) "stale router admitted the revoked user" true
    (List.assoc "stale_accepts" r.Scenario.cr_fault_counters > 0)

let test_city_alerts_deterministic () =
  (* the stale-partition plan revokes user 0 mid-run: the operator
     reissues the URL (revocation_update list=url) and honest routers
     then reject the revoked user with wire code 7 — so the reuse rule
     must fire, at the same sim millisecond on every same-seed run. A
     never-true metric rule rides along to prove quiet rules stay quiet. *)
  let faults =
    match Faults.of_string "stale:5000" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let rules =
    match
      Peace_obs.Alert.rules_of_string
        "reuse=reuse:2:5m\nquiet=over:no.such.metric:1"
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let run alert_rules =
    Scenario.city_auth ~seed:19 ~faults ~n_routers:2 ~n_users:6
      ~area_m:400.0 ~range_m:2_000.0 ~duration_ms:90_000
      ~mean_interarrival_ms:5_000.0 ~alert_rules ()
  in
  let r1 = run rules in
  let r2 = run rules in
  Alcotest.(check bool) "same seed, same firing sequence" true
    (r1.Scenario.cr_alerts = r2.Scenario.cr_alerts);
  let firing_ts =
    List.filter_map
      (fun (ts, name, st) ->
        if name = "reuse" && st = Peace_obs.Alert.Firing then Some ts else None)
      r1.Scenario.cr_alerts
  in
  Alcotest.(check bool) "revoked-credential reuse fired" true (firing_ts <> []);
  List.iter
    (fun ts ->
      Alcotest.(check int) "firing lands on a sim evaluation second" 0
        ((ts - 1_000_000) mod 1_000))
    firing_ts;
  Alcotest.(check bool) "the quiet rule never fired" true
    (List.for_all
       (fun (_, name, st) -> name <> "quiet" || st <> Peace_obs.Alert.Firing)
       r1.Scenario.cr_alerts);
  (* the evaluator only observes: the simulation outcome is bit-identical
     to the run without rules *)
  let r0 = run [] in
  Alcotest.(check bool) "alert evaluation does not perturb the sim" true
    ({ r1 with Scenario.cr_alerts = [] } = r0)

let test_dos_with_faults () =
  (* the dos scenario takes the same plans; churn on its single router *)
  let faults =
    match Faults.of_string "burst:0.1:0.4:0.5,churn:8000:1500" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r =
    Scenario.dos_attack ~seed:23 ~puzzles:false ~faults
      ~attack_rate_per_s:20.0 ~legit_rate_per_s:1.0 ~duration_ms:20_000 ()
  in
  let r2 =
    Scenario.dos_attack ~seed:23 ~puzzles:false ~faults
      ~attack_rate_per_s:20.0 ~legit_rate_per_s:1.0 ~duration_ms:20_000 ()
  in
  Alcotest.(check bool) "deterministic under faults" true (r = r2);
  Alcotest.(check bool) "flood still reaches the router" true
    (r.Scenario.dr_bogus_received > 0)

let test_net_dropped_unknown () =
  let engine = Engine.create () in
  let net = Net.create engine () in
  let got = ref 0 in
  Net.register net 1 ~pos:(0.0, 0.0) (fun _ -> incr got);
  Net.register net 2 ~pos:(10.0, 0.0) (fun _ -> incr got);
  Net.send net ~src:1 ~dst:2 "hello";
  Engine.run engine;
  Net.send net ~src:1 ~dst:99 "void";
  (* departure between send and delivery also counts *)
  Net.send net ~src:1 ~dst:2 "late";
  Net.unregister net 2;
  Engine.run engine;
  Alcotest.(check int) "only the live destination heard" 1 !got;
  Alcotest.(check int) "unknown-destination frames counted" 2
    (Net.frames_dropped_unknown net)

let test_multihop () =
  let r =
    Scenario.multihop_auth ~seed:5 ~n_near:4 ~n_far:4 ~duration_ms:30_000 ()
  in
  Alcotest.(check int) "near users authenticate directly" 4
    r.Scenario.mh_near_successes;
  Alcotest.(check int) "far users authenticate via relays" 4
    r.Scenario.mh_far_successes;
  Alcotest.(check bool) "peer handshakes ran" true
    (r.Scenario.mh_peer_handshakes >= 4)

(* --- golden results ---

   Each scenario's results at fixed seeds, floats compared by [=]. The
   means come from histograms of whole simulated milliseconds and the p95
   from exact samples, so any change to how a run records or reads its
   metrics must reproduce them bit for bit; only a change to what the
   simulation does may move them. *)

let test_golden_city () =
  let faults =
    match
      Faults.of_string
        "burst:0.2:0.3:0.6:0.05,dup:0.05,corrupt:0.05,churn:9000:2500,stale:5000"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r =
    Scenario.city_auth ~seed:13 ~faults ~n_routers:3 ~n_users:8 ~area_m:800.0
      ~range_m:600.0 ~duration_ms:60_000 ~mean_interarrival_ms:6_000.0 ()
  in
  Alcotest.(check int) "attempts" 62 r.Scenario.cr_attempts;
  Alcotest.(check int) "successes" 59 r.Scenario.cr_successes;
  Alcotest.(check int) "retransmissions" 48 r.Scenario.cr_retransmissions;
  Alcotest.(check int) "timeouts" 3 r.Scenario.cr_timeouts;
  Alcotest.(check int) "failovers" 3 r.Scenario.cr_failovers;
  Alcotest.check exact "handshake mean" 924.01694915254234
    r.Scenario.cr_handshake_mean_ms;
  Alcotest.check exact "handshake p95" 3876.3999999999778
    r.Scenario.cr_handshake_p95_ms;
  Alcotest.check exact "time to auth mean" 2497.0677966101694
    r.Scenario.cr_time_to_auth_mean_ms;
  Alcotest.check exact "recovery mean" 4481.090909090909
    r.Scenario.cr_recovery_mean_ms;
  Alcotest.(check (list (pair string int))) "failures"
    [
      ("router.rejected.stale timestamp", 3);
      ("router.rejected.user revoked", 2);
      ("user.abandoned.timeout", 3);
      ("user.beacon_rejected.bad beacon signature", 1);
      ("user.beacon_rejected.bad revocation list", 1);
      ("user.dropped.malformed frame", 2);
    ]
    r.Scenario.cr_failures;
  Alcotest.(check (list (pair string int))) "fault counters"
    [
      ("corrupted", 118);
      ("duplicated", 127);
      ("lost", 783);
      ("reordered", 0);
      ("crashes", 6);
      ("restarts", 6);
      ("stale_accepts", 1);
      ("dropped_unknown", 7);
    ]
    r.Scenario.cr_fault_counters;
  (* the run counted into its own registry, not the process-wide one *)
  Alcotest.(check (option (float 0.0))) "no run count in the process-wide registry"
    None (Registry.lookup "user.authenticated");
  Alcotest.(check (option (float 0.0))) "no run mean in the process-wide registry"
    None (Registry.lookup "handshake_ms")

let test_golden_others () =
  let ro =
    Scenario.roaming ~seed:7 ~n_routers:4 ~n_users:6 ~duration_ms:40_000
      ~move_period_ms:6_000 ()
  in
  Alcotest.(check int) "roaming handoffs" 39 ro.Scenario.ro_handoffs;
  Alcotest.(check int) "roaming failures" 0 ro.Scenario.ro_handoff_failures;
  Alcotest.check exact "roaming handoff mean" 125.76923076923077
    ro.Scenario.ro_handoff_mean_ms;
  let ph =
    Scenario.phishing ~seed:31 ~crl_refresh_ms:60_000 ~revoke_at_ms:123_000
      ~duration_ms:400_000 ~attempt_period_ms:7_000 ()
  in
  Alcotest.(check int) "phishing in window" 8 ph.Scenario.pr_accepted_in_window;
  Alcotest.(check int) "phishing window" 52_000 ph.Scenario.pr_window_ms;
  let d =
    Scenario.dos_attack ~seed:21 ~puzzles:true ~puzzle_difficulty:10
      ~attacker_hash_rate_per_ms:10.0 ~attack_rate_per_s:20.0
      ~legit_rate_per_s:1.0 ~duration_ms:15_000 ()
  in
  Alcotest.(check (list int)) "dos counts" [ 14; 13; 124; 137; 0; 70_380 ]
    Scenario.
      [
        d.dr_legit_attempts;
        d.dr_legit_successes;
        d.dr_bogus_received;
        d.dr_expensive_verifications;
        d.dr_cheap_rejections;
        d.dr_attacker_hashes;
      ];
  let m = Scenario.multihop_auth ~seed:5 ~n_near:3 ~n_far:3 ~duration_ms:20_000 () in
  Alcotest.(check (list int)) "multihop counts" [ 3; 3; 3; 3; 3; 0 ]
    Scenario.
      [
        m.mh_near_successes;
        m.mh_near_attempts;
        m.mh_far_successes;
        m.mh_far_attempts;
        m.mh_peer_handshakes;
        m.mh_frames_out_of_range;
      ]

let suite =
  [
    ( "engine",
      [
        Alcotest.test_case "event queue" `Quick test_event_queue;
        Alcotest.test_case "engine" `Quick test_engine;
        Alcotest.test_case "periodic" `Quick test_engine_periodic;
      ] );
    ( "net",
      [
        Alcotest.test_case "delivery" `Quick test_net_delivery;
        Alcotest.test_case "sim rand" `Quick test_sim_rand;
        Alcotest.test_case "metrics" `Quick test_metrics;
        Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
        Alcotest.test_case "span stitching across schedule" `Quick
          test_span_stitching_across_schedule;
        Alcotest.test_case "attach_sampler sim time" `Quick
          test_attach_sampler_simulated_time;
      ] );
    ( "scenarios",
      [
        Alcotest.test_case "attack matrix" `Quick test_attack_matrix;
        Alcotest.test_case "city smoke" `Slow test_city_smoke;
        Alcotest.test_case "city spans for any collector" `Slow
          test_city_spans_for_any_collector;
        Alcotest.test_case "dos smoke" `Slow test_dos_smoke;
        Alcotest.test_case "phishing smoke" `Slow test_phishing_smoke;
        Alcotest.test_case "multihop relay" `Slow test_multihop;
        Alcotest.test_case "lossy radio retries" `Slow test_city_with_losses;
      ] );
    ( "golden",
      [
        Alcotest.test_case "city under a fault plan" `Slow test_golden_city;
        Alcotest.test_case "roaming, phishing, dos, multihop" `Slow
          test_golden_others;
      ] );
    ( "faults",
      [
        Alcotest.test_case "spec parsing" `Quick test_faults_spec;
        Alcotest.test_case "link deterministic" `Quick
          test_faults_link_deterministic;
        Alcotest.test_case "dropped unknown destination" `Quick
          test_net_dropped_unknown;
        Alcotest.test_case "city deterministic under plan" `Slow
          test_city_faults_deterministic;
        Alcotest.test_case "hardened beats baseline at 20%+ loss" `Slow
          test_city_hardened_beats_baseline;
        Alcotest.test_case "corruption rejected, never fatal" `Slow
          test_city_corruption_rejected_not_fatal;
        Alcotest.test_case "churn recovers" `Slow test_city_churn_recovers;
        Alcotest.test_case "stale partition counted" `Slow
          test_city_stale_partition;
        Alcotest.test_case "alert firing sequence deterministic" `Slow
          test_city_alerts_deterministic;
        Alcotest.test_case "dos under faults" `Slow test_dos_with_faults;
      ] );
  ]

let () = Alcotest.run "peace-sim" suite
