type result_ = {
  slo_report : Loadgen.report;
  slo_counters : (string * int) list;
}

(* a fresh private socket path: short (AF_UNIX paths cap at ~104 bytes)
   and unique per run so concurrent invocations cannot collide *)
let fresh_socket_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec try_mk n =
    if n > 100 then Error "slo: could not create a temporary socket directory"
    else begin
      let dir =
        Filename.concat base (Printf.sprintf "peace-slo-%d-%d" (Unix.getpid ()) n)
      in
      match Unix.mkdir dir 0o700 with
      | () -> Ok dir
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> try_mk (n + 1)
      | exception Unix.Unix_error (e, _, _) ->
        Error ("slo: mkdir: " ^ Unix.error_message e)
    end
  in
  try_mk 0

let rmdir_noerr dir = try Unix.rmdir dir with Unix.Unix_error _ -> ()

let run ?params ?(n_users = 4) ?(workers = 2) ?(concurrency = 2) ?rate ?(duration_s = 2.0)
    ?(impair = Loadgen.no_impairments) ?(seed = 42) () =
  if concurrency > n_users then
    Error
      (Printf.sprintf "slo: concurrency %d needs at least as many users (have %d)"
         concurrency n_users)
  else
    match fresh_socket_dir () with
    | Error _ as e -> e
    | Ok dir ->
      let testbed = Testbed.make ?params ~n_users () in
      let addr = Peace_sock.Unix_path (Filename.concat dir "authority.sock") in
      Fun.protect
        ~finally:(fun () -> rmdir_noerr dir)
        (fun () ->
          match
            Authority.start ~workers ~config:testbed.Testbed.tb_config
              ~router:testbed.Testbed.tb_router addr
          with
          | Error _ as e -> e
          | Ok server ->
            let connect = Authority.bound_addr server in
            let outcome =
              Fun.protect
                ~finally:(fun () -> Authority.stop server)
                (fun () ->
                  Loadgen.run ~connect ~testbed ~concurrency ?rate ~duration_s
                    ~impair ~seed ())
            in
            (* counters are read after stop: every in-flight request has
               drained, so the snapshot is consistent with the report *)
            Result.map
              (fun report ->
                { slo_report = report; slo_counters = Authority.service_counters () })
              outcome)

(* Schema-1 bench JSON (Obs_json's one results document, which the bench
   harness writes too), so `peace bench-report OLD NEW` can diff two SLO
   runs — or an SLO run against a committed baseline — without the bench
   harness. *)
let bench_json ?(prefix = "slo") ~rev ~date r =
  let rep = r.slo_report in
  let pct p = Loadgen.percentile rep.Loadgen.lr_latencies_ms p in
  let row name unit_ value better = (prefix ^ "." ^ name, unit_, value, better) in
  Peace_obs.Obs_json.results_document ~rev ~date
    [
      row "throughput_rps" "rps" rep.Loadgen.lr_throughput_rps "higher";
      row "p50_ms" "ms" (pct 50.0) "lower";
      row "p95_ms" "ms" (pct 95.0) "lower";
      row "p99_ms" "ms" (pct 99.0) "lower";
      row "ok_total" "count" (float_of_int rep.Loadgen.lr_ok) "higher";
      row "errors_total" "count"
        (float_of_int
           (List.fold_left (fun a (_, n) -> a + n) 0 rep.Loadgen.lr_errors))
        "lower";
    ]

let print r =
  Loadgen.print_report r.slo_report;
  print_newline ();
  print_endline "service counters:";
  List.iter
    (fun (name, v) -> Printf.printf "  %-40s %d\n" name v)
    r.slo_counters
