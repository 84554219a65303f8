open Peace_core
module Trace = Peace_obs.Trace

type impairments = {
  im_jitter_ms : float;
  im_drop_p : float;
  im_malformed_p : float;
  im_truncate_p : float;
}

let no_impairments =
  { im_jitter_ms = 0.0; im_drop_p = 0.0; im_malformed_p = 0.0; im_truncate_p = 0.0 }

let is_no_impairments i = i = no_impairments

let impairments_of_string spec =
  let prob what s =
    match float_of_string_opt s with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok p
    | _ -> Error (what ^ ": probability must be in [0,1]")
  in
  let token acc tok =
    match acc with
    | Error _ as e -> e
    | Ok acc -> (
      match String.split_on_char ':' (String.trim tok) with
      | [ "jitter"; ms ] -> (
        match float_of_string_opt ms with
        | Some v when v >= 0.0 -> Ok { acc with im_jitter_ms = v }
        | _ -> Error "jitter: milliseconds must be >= 0")
      | [ "drop"; p ] -> Result.map (fun p -> { acc with im_drop_p = p }) (prob "drop" p)
      | [ "malformed"; p ] ->
        Result.map (fun p -> { acc with im_malformed_p = p }) (prob "malformed" p)
      | [ "truncate"; p ] ->
        Result.map (fun p -> { acc with im_truncate_p = p }) (prob "truncate" p)
      | _ -> Error (Printf.sprintf "unknown impairment token %S" (String.trim tok)))
  in
  List.fold_left token (Ok no_impairments) (String.split_on_char ',' spec)

type report = {
  lr_duration_s : float;
  lr_mode : string;
  lr_concurrency : int;
  lr_attempted : int;
  lr_ok : int;
  lr_impaired : int;
  lr_errors : (string * int) list;
  lr_latencies_ms : float array;
  lr_throughput_rps : float;
}

let percentile = Peace_obs.Registry.percentile

(* per-worker tally, merged after join *)
type tally = {
  mutable t_attempted : int;
  mutable t_ok : int;
  mutable t_impaired : int;
  mutable t_errors : (string * int) list;
  mutable t_latencies : float list;
}

let count tally kind =
  let n = try List.assoc kind tally.t_errors with Not_found -> 0 in
  tally.t_errors <- (kind, n + 1) :: List.remove_assoc kind tally.t_errors

(* one worker: its own user, connection, and random stream *)
type conn_state = { mutable fd : Unix.file_descr option }

let disconnect st =
  match st.fd with
  | Some fd ->
    Peace_sock.close_noerr fd;
    st.fd <- None
  | None -> ()

let connected ~connect ~timeout_s st =
  match st.fd with
  | Some fd -> Ok fd
  | None -> (
    match Peace_sock.connect connect with
    | Error _ as e -> e
    | Ok fd ->
      Peace_sock.set_timeout fd timeout_s;
      st.fd <- Some fd;
      Ok fd)

let exchange st fd tag payload =
  match Frames.write fd tag payload with
  | Error e ->
    disconnect st;
    Error (`Conn e)
  | Ok () -> (
    match Frames.read fd with
    | Ok reply -> Ok reply
    | Error `Timeout ->
      disconnect st;
      Error `Timeout
    | Error `Eof ->
      disconnect st;
      Error (`Conn "server closed connection")
    | Error (`Err e) ->
      disconnect st;
      Error (`Conn e))

(* the full M.1 -> M.2 -> M.3 exchange; [latency_from] (wall seconds) is
   where the recorded latency clock starts: the scheduled arrival in open
   loop, the start of the handshake (before the beacon fetch) in closed
   loop — so both loops time M.1 -> M.3, and the open loop adds only its
   queueing.

   When anyone is listening to the trace stream, each handshake becomes a
   span tree: a root [loadgen.handshake] with one child per round trip,
   and each request ships its child's (trace, span) over the wire in a
   Traced envelope so the authority's [service.request] span joins the
   same tree. No listener, no overhead — not even the envelope bytes. *)
let handshake ~config ~gpk ~user ~latency_from st fd tally =
  let root =
    if Trace.collector_active () then
      Some (Trace.start ~trace:(Trace.fresh_trace_id ()) "loadgen.handshake")
    else None
  in
  let from =
    match latency_from with Some t -> t | None -> Unix.gettimeofday ()
  in
  let exchange' name tag payload =
    match root with
    | None -> exchange st fd tag payload
    | Some root ->
      let sp = Trace.start_linked ~parent:root name in
      let ctx =
        {
          Frames.tc_trace = Option.value ~default:0 (Trace.trace_of sp);
          tc_parent = Trace.id sp;
        }
      in
      let r =
        exchange st fd Frames.Traced (Frames.wrap_traced ~ctx tag payload)
      in
      Trace.finish sp;
      r
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Trace.finish root)
  @@ fun () ->
  let classify = function
    | `Conn _ -> "conn"
    | `Timeout -> "timeout"
  in
  match exchange' "loadgen.get_beacon" Frames.Get_beacon "" with
  | Error e -> count tally (classify e)
  | Ok (Frames.Beacon, bytes) -> (
    match Messages.beacon_of_bytes config bytes with
    | None -> count tally "decode"
    | Some beacon -> (
      match User.process_beacon user beacon with
      | Error err -> count tally ("client:" ^ Protocol_error.to_string err)
      | Ok (request, pending) -> (
        let gpk_bytes = Messages.access_request_to_bytes config gpk request in
        match exchange' "loadgen.access" Frames.Access gpk_bytes with
        | Error e -> count tally (classify e)
        | Ok (Frames.Confirm, bytes) -> (
          match Messages.access_confirm_of_bytes config bytes with
          | None -> count tally "decode"
          | Some confirm -> (
            match User.process_confirm user pending confirm with
            | Ok _session ->
              tally.t_ok <- tally.t_ok + 1;
              tally.t_latencies <-
                ((Unix.gettimeofday () -. from) *. 1000.0) :: tally.t_latencies
            | Error err -> count tally ("client:" ^ Protocol_error.to_string err)))
        | Ok (Frames.Rejected, payload) ->
          let kind =
            match Frames.parse_rejected payload with
            | Some (code, _) -> "reject:" ^ Frames.error_name code
            | None -> "reject:?"
          in
          count tally kind
        | Ok _ -> count tally "protocol")))
  | Ok (Frames.Rejected, _) -> count tally "reject:beacon"
  | Ok _ -> count tally "protocol"

let worker ~connect ~config ~gpk ~user ~deadline ~interarrival_s ~impair ~seed
    ~timeout_s () =
  let rand = Peace_sim.Sim_rand.create ~seed in
  let tally =
    { t_attempted = 0; t_ok = 0; t_impaired = 0; t_errors = []; t_latencies = [] }
  in
  let st = { fd = None } in
  let garbage n =
    String.init n (fun _ -> Char.chr (Peace_sim.Sim_rand.int rand 256))
  in
  (* open loop: the next scheduled arrival; closed loop: unused *)
  let next_arrival = ref (Unix.gettimeofday ()) in
  let rec loop () =
    let now = Unix.gettimeofday () in
    if now < deadline then begin
      let latency_from =
        match interarrival_s with
        | None -> None
        | Some mean ->
          (* Poisson arrivals: sleep until the scheduled instant (or start
             immediately if we have fallen behind — the backlog then shows
             up as latency, which is the point of an open loop) *)
          let scheduled = !next_arrival in
          next_arrival :=
            scheduled +. Peace_sim.Sim_rand.exponential rand ~mean;
          if scheduled > now then Unix.sleepf (scheduled -. now);
          Some scheduled
      in
      if impair.im_jitter_ms > 0.0 then
        Unix.sleepf (Peace_sim.Sim_rand.float rand impair.im_jitter_ms /. 1000.0);
      tally.t_attempted <- tally.t_attempted + 1;
      let roll p = p > 0.0 && Peace_sim.Sim_rand.float rand 1.0 < p in
      (match connected ~connect ~timeout_s st with
      | Error _ ->
        count tally "conn";
        Unix.sleepf 0.05 (* do not spin against a dead server *)
      | Ok fd ->
        if roll impair.im_drop_p then begin
          tally.t_impaired <- tally.t_impaired + 1;
          count tally "impair:drop";
          disconnect st
        end
        else if roll impair.im_malformed_p then begin
          tally.t_impaired <- tally.t_impaired + 1;
          count tally "impair:malformed";
          (* a well-framed request whose payload is noise: the server must
             answer Rejected and keep the connection usable *)
          match exchange st fd Frames.Access (garbage (8 + Peace_sim.Sim_rand.int rand 64)) with
          | Ok (Frames.Rejected, _) -> ()
          | Ok _ -> count tally "protocol"
          | Error _ -> count tally "conn"
        end
        else if roll impair.im_truncate_p then begin
          tally.t_impaired <- tally.t_impaired + 1;
          count tally "impair:truncate";
          (* promise 64 payload bytes, deliver half, hang up mid-frame *)
          let w = Wire.writer () in
          Wire.u32 w 65;
          Wire.u8 w (Frames.tag_to_int Frames.Access);
          Wire.raw w (garbage 32);
          ignore (Peace_sock.write_all fd (Wire.contents w));
          disconnect st
        end
        else handshake ~config ~gpk ~user ~latency_from st fd tally);
      loop ()
    end
  in
  loop ();
  disconnect st;
  tally

let run ~connect ~testbed ?(concurrency = 2) ?rate ?(duration_s = 2.0)
    ?(impair = no_impairments) ?(seed = 42) ?(timeout_s = 5.0) () =
  if concurrency < 1 then Error "loadgen: concurrency must be >= 1"
  else if duration_s <= 0.0 then Error "loadgen: duration must be > 0"
  else if concurrency > List.length testbed.Testbed.tb_users then
    Error
      (Printf.sprintf
         "loadgen: concurrency %d exceeds the testbed's %d users (each worker \
          needs its own)"
         concurrency
         (List.length testbed.Testbed.tb_users))
  else begin
    match rate with
    | Some r when r <= 0.0 -> Error "loadgen: rate must be > 0"
    | _ ->
      let config = testbed.Testbed.tb_config in
      let gpk = Mesh_router.current_gpk testbed.Testbed.tb_router in
      let interarrival_s =
        Option.map (fun r -> float_of_int concurrency /. r) rate
      in
      let t0 = Unix.gettimeofday () in
      let deadline = t0 +. duration_s in
      let domains =
        List.mapi
          (fun i user ->
            Domain.spawn
              (worker ~connect ~config ~gpk ~user ~deadline ~interarrival_s
                 ~impair ~seed:(seed + (1337 * i)) ~timeout_s))
          (List.filteri (fun i _ -> i < concurrency) testbed.Testbed.tb_users)
      in
      let tallies = List.map Domain.join domains in
      let duration = Unix.gettimeofday () -. t0 in
      let merge_errors acc t =
        List.fold_left
          (fun acc (k, n) ->
            let before = try List.assoc k acc with Not_found -> 0 in
            (k, before + n) :: List.remove_assoc k acc)
          acc t.t_errors
      in
      let latencies =
        List.concat_map (fun t -> t.t_latencies) tallies |> Array.of_list
      in
      Array.sort compare latencies;
      let sum f = List.fold_left (fun a t -> a + f t) 0 tallies in
      let ok = sum (fun t -> t.t_ok) in
      Ok
        {
          lr_duration_s = duration;
          lr_mode =
            (match rate with
            | None -> "closed-loop"
            | Some r -> Printf.sprintf "open-loop @ %.0f/s" r);
          lr_concurrency = concurrency;
          lr_attempted = sum (fun t -> t.t_attempted);
          lr_ok = ok;
          lr_impaired = sum (fun t -> t.t_impaired);
          lr_errors =
            List.sort compare (List.fold_left merge_errors [] tallies);
          lr_latencies_ms = latencies;
          lr_throughput_rps = float_of_int ok /. duration;
        }
  end

let print_report r =
  Printf.printf "loadgen: %.1f s, concurrency %d, %s\n" r.lr_duration_s
    r.lr_concurrency r.lr_mode;
  Printf.printf "  handshakes: %d ok / %d attempted%s\n" r.lr_ok r.lr_attempted
    (if r.lr_impaired > 0 then Printf.sprintf " (%d impaired)" r.lr_impaired
     else "");
  Printf.printf "  throughput: %.1f auth/s\n" r.lr_throughput_rps;
  if Array.length r.lr_latencies_ms > 0 then
    Printf.printf
      "  latency:    p50 %.2f ms   p95 %.2f ms   p99 %.2f ms   max %.2f ms\n"
      (percentile r.lr_latencies_ms 50.0)
      (percentile r.lr_latencies_ms 95.0)
      (percentile r.lr_latencies_ms 99.0)
      r.lr_latencies_ms.(Array.length r.lr_latencies_ms - 1);
  match r.lr_errors with
  | [] -> ()
  | errors ->
    Printf.printf "  errors:     %s\n"
      (String.concat ", "
         (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) errors))
