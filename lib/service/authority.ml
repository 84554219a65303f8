open Peace_core
module Obs = Peace_obs.Registry
module Trace = Peace_obs.Trace
module Log = Peace_obs.Log
module Serve = Peace_obs.Serve

(* service.* observability: connection lifecycle and per-frame outcomes;
   the service.request span and its decode, verify and encode children
   time each phase of (M.2) handling into service.<phase>_ns *)
let c_connections = Obs.counter "service.connections_total"
let g_active = Obs.gauge "service.connections_active"
let g_queue_depth = Obs.gauge "service.conn_queue_depth"
let g_workers_busy = Obs.gauge "service.workers_busy"
let c_requests = Obs.counter "service.requests_total"
let c_confirms = Obs.counter "service.confirms_total"
let c_beacons = Obs.counter "service.beacons_total"

(* error kinds are a small stable set hit on hot paths, so resolve each
   label's counter once through a memoized family instead of rebuilding
   the series key (string concat + registry mutex) per error *)
let error_counter = Obs.counter_family ~label:"kind" "service.errors_total"
let count_error kind = Obs.Counter.incr (error_counter kind)

(* every service.errors_total{kind=...} series summed — the error-rate
   health check wants the overall picture, whatever the kinds *)
let total_errors () =
  List.fold_left
    (fun acc (name, v) ->
      if fst (Obs.split_name name) = "service.errors_total" then acc + v
      else acc)
    0 (Obs.counters ())

(* connections held open at once, so every descriptor the authority adds
   stays below select's FD_SETSIZE (1 024) *)
let max_conns = 512

type t = {
  listener : Unix.file_descr;
  bound : Peace_sock.addr;
  stop_flag : bool Atomic.t;
  held : int Atomic.t array; (* connections each worker owns *)
  wake : (Unix.file_descr * Unix.file_descr) array;
      (* a pipe per worker: a byte on it makes the worker look again at
         whose turn it is to accept *)
  waiting : int Atomic.t; (* connections with a frame ready, not yet served *)
  config : Config.t;
  router : Mesh_router.t;
  router_mu : Mutex.t;
  beacon_period_ms : int;
  mutable cached_beacon : (int * Messages.beacon) option;
  mutable workers : unit Domain.t list;
  stopped : bool Atomic.t; (* stop() ran to completion (idempotence) *)
}

let bound_addr t = t.bound

let with_router t f =
  Mutex.lock t.router_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.router_mu) f

(* the broadcast beacon: one (M.1) serves every handshake inside the
   refresh period — the paper's periodic-broadcast model, and what keeps
   the router's outstanding-beacon table from growing per request *)
let current_beacon t =
  with_router t (fun () ->
      let now = Clock.now t.config.Config.clock in
      match t.cached_beacon with
      | Some (issued, b) when now - issued < t.beacon_period_ms -> b
      | _ ->
        let b = Mesh_router.beacon t.router in
        t.cached_beacon <- Some (now, b);
        b)

let reply_rejected fd err =
  let code = Frames.error_code err in
  count_error (Frames.error_name code);
  Frames.write fd Frames.Rejected
    (Frames.rejected_payload ~code ~detail:(Protocol_error.to_string err))

(* one (M.2), cheapest work first: the framing and the cheap phases on
   the shares' encodings under the router mutex, then the points of a
   frame that passed them and the signature check off-lock on this
   connection worker, then finalize under the mutex. Everything before
   the signature check is one service.decode span, so every access
   frame's request span has a decode child and a confirmed request's
   decode child covers its point decodes. *)
let handle_access t fd payload =
  let gpk = Mesh_router.current_gpk t.router in
  let staged =
    Trace.with_span "service.decode" (fun () ->
        match Messages.access_frame_of_bytes t.config gpk payload with
        | None -> `Unparseable
        | Some frame -> (
          match
            with_router t (fun () -> Mesh_router.access_precheck_frame t.router frame)
          with
          | (`Reject _ | `Resend _) as early -> early
          | `Verify (ticket, transcript, url) -> (
            match Mesh_router.access_points t.router gpk ticket frame with
            | Some m -> `Verify (m, ticket, transcript, url)
            | None -> `Unparseable)))
  in
  match staged with
  | `Unparseable ->
    count_error "decode";
    Frames.write fd Frames.Rejected
      (Frames.rejected_payload ~code:14 ~detail:"unparseable access request")
  | `Reject err -> reply_rejected fd err
  | `Resend (confirm, _session) ->
    Obs.Counter.incr c_confirms;
    Frames.write fd Frames.Confirm (Messages.access_confirm_to_bytes t.config confirm)
  | `Verify (m, ticket, transcript, url) -> (
    let verdict =
      Trace.with_span "service.verify" (fun () ->
          Peace_groupsig.Group_sig.verify gpk ~url ~msg:transcript m.Messages.gsig)
    in
    match with_router t (fun () -> Mesh_router.access_finish t.router m ticket verdict) with
    | Error err -> reply_rejected fd err
    | Ok (confirm, _session) ->
      Obs.Counter.incr c_confirms;
      let bytes =
        Trace.with_span "service.encode" (fun () ->
            Messages.access_confirm_to_bytes t.config confirm)
      in
      Frames.write fd Frames.Confirm bytes)

let handle_request t fd tag payload =
  match tag with
  | Frames.Ping -> Frames.write fd Frames.Pong ""
  | Frames.Get_beacon ->
    Obs.Counter.incr c_beacons;
    Frames.write fd Frames.Beacon
      (Messages.beacon_to_bytes t.config (current_beacon t))
  | Frames.Access -> handle_access t fd payload
  | Frames.Traced ->
    (* unreachable from serve_conn (the envelope is unwrapped there, and
       unwrap_traced rejects nesting) but keep the protocol total *)
    count_error "traced";
    Frames.write fd Frames.Rejected
      (Frames.rejected_payload ~code:0 ~detail:"nested traced frame")
  | Frames.Beacon | Frames.Confirm | Frames.Rejected | Frames.Pong ->
    count_error "bad-tag";
    Frames.write fd Frames.Rejected
      (Frames.rejected_payload ~code:0 ~detail:"response tag in request direction")

(* returns [true] to keep the connection open. [ctx] is the trace context
   the client sent in a Traced envelope: when a collector is actually
   listening, the request span continues the client's trace via
   start_remote, and with_parent makes the nested decode/verify/encode
   spans children of it. Without a listener the context costs two
   physical-equality checks. *)
let handle_frame ?ctx t fd tag payload =
  Obs.Counter.incr c_requests;
  let body () = handle_request t fd tag payload in
  let write_result =
    match ctx with
    | Some { Frames.tc_trace; tc_parent }
      when Trace.collector_active () ->
      let h =
        Trace.start_remote ~trace:tc_trace ~parent:tc_parent "service.request"
      in
      Fun.protect
        ~finally:(fun () -> Trace.finish h)
        (fun () -> Trace.with_parent h body)
    | _ -> Trace.with_span "service.request" body
  in
  match write_result with
  | Ok () -> true
  | Error _ ->
    (* the client went away mid-response (EPIPE/ECONNRESET) *)
    count_error "write";
    false

(* one frame from a connection that select found readable; [false]
   closes the connection *)
let serve_frame t fd =
  match Frames.read fd with
  | Error `Timeout -> true
  | Error `Eof -> false
  | Error (`Err reason) ->
    (* the stream has lost frame sync — count it and hang up; the server
       itself keeps serving everyone else *)
    count_error "frame";
    Log.warn ~attrs:[ ("reason", reason) ] "frame sync lost, closing connection";
    false
  | Ok (Frames.Traced, payload) -> (
    (* peel the trace envelope here so the dispatch below sees only
       ordinary request tags; a bad envelope is a payload error: reject
       and keep the connection *)
    match Frames.unwrap_traced payload with
    | Error reason -> (
      Obs.Counter.incr c_requests;
      count_error "traced";
      Log.warn ~attrs:[ ("reason", reason) ] "bad traced envelope";
      match
        Frames.write fd Frames.Rejected (Frames.rejected_payload ~code:0 ~detail:reason)
      with
      | Ok () -> true
      | Error _ ->
        count_error "write";
        false)
    | Ok (tag, payload, ctx) -> handle_frame ~ctx t fd tag payload)
  | Ok (tag, payload) -> handle_frame t fd tag payload

(* The next client goes to the worker that holds the fewest connections,
   ties to the lowest index, while the authority holds fewer than
   [max_conns]; beyond that, connections wait in the listen backlog.
   One worker at a time is due, so which worker a client lands on
   follows from the order of connects and hang-ups alone, never from
   which worker woke first. *)
let my_turn t i =
  let mine = Atomic.get t.held.(i) in
  let total = ref 0 and turn = ref true in
  Array.iteri
    (fun j h ->
      let h = Atomic.get h in
      total := !total + h;
      if h < mine || (h = mine && j < i) then turn := false)
    t.held;
  !turn && !total < max_conns

(* after worker [i] accepts or hangs up, the turn may have passed to a
   worker parked in select without the listener *)
let wake_others t i =
  Array.iteri
    (fun j (_, w) ->
      if j <> i then
        try ignore (Unix.single_write_substring w "!" 0 1)
        with Unix.Unix_error _ -> () (* full: a wake-up is already pending *))
    t.wake

let drain fd =
  let buf = Bytes.create 64 in
  try while Unix.read fd buf 0 64 = 64 do () done with Unix.Unix_error _ -> ()

(* Worker [i] owns the connections it accepted and serves one frame from
   each that is ready per pass. It watches the listener only while it is
   its turn to accept, so concurrent clients spread over the workers and
   verify in parallel. The select timeout is what lets an idle worker see
   the stop flag. *)
let worker t i () =
  let conns = ref [] in
  let wake_r = fst t.wake.(i) in
  let close fd =
    Atomic.decr t.held.(i);
    wake_others t i;
    Obs.Gauge.decr g_active;
    Peace_sock.close_noerr fd
  in
  let accept () =
    match Unix.accept t.listener with
    | exception
        Unix.Unix_error
          ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
      () (* the client already left, or another worker took it *)
    | exception Unix.Unix_error _ -> Atomic.set t.stop_flag true
    | fd, _ ->
      (* a read that select woke but whose frame stalls gives up after
         250 ms, as a frame cut short *)
      Peace_sock.set_timeout fd 0.25;
      Atomic.incr t.held.(i);
      wake_others t i;
      Obs.Counter.incr c_connections;
      Obs.Gauge.incr g_active;
      conns := fd :: !conns
  in
  (* both move by the same delta: a [set] from the count could land out
     of order with another worker's and leave the gauge stale at rest *)
  let waiting d =
    ignore (Atomic.fetch_and_add t.waiting d);
    Obs.Gauge.add g_queue_depth d
  in
  let serve fd =
    waiting (-1);
    let keep =
      try serve_frame t fd
      with _ ->
        count_error "internal";
        Log.error "worker crashed serving a connection";
        false
    in
    if not keep then begin
      conns := List.filter (fun c -> c <> fd) !conns;
      close fd
    end
  in
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      let watched = if my_turn t i then t.listener :: !conns else !conns in
      (match Unix.select (wake_r :: watched) [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
        if List.mem wake_r ready then drain wake_r;
        let ready_conns =
          List.filter (fun fd -> fd <> t.listener && fd <> wake_r) ready
        in
        if ready_conns <> [] then begin
          waiting (List.length ready_conns);
          Obs.Gauge.incr g_workers_busy;
          List.iter serve ready_conns;
          Obs.Gauge.decr g_workers_busy
        end;
        (* the turn may have passed while this worker waited or served *)
        if List.mem t.listener ready && my_turn t i then accept ());
      loop ()
    end
  in
  Fun.protect ~finally:(fun () -> List.iter close !conns) loop

(* The authority's /healthz contribution. Two checks, re-evaluated per
   scrape:

   - queue saturation: 4 × workers connections have a frame ready that
     waits for its worker — the first externally visible backpressure
     signal.
   - error-rate window: the fraction of errors among requests since the
     previous evaluation (stateful delta, so a burst of startup errors
     ages out after one scrape). Degraded above [threshold_pct] once at
     least [min_events] requests are in the window. *)
let queue_health t () =
  let len = Atomic.get t.waiting and cap = 4 * Array.length t.held in
  if len >= cap then
    Error
      (Printf.sprintf "%d connections have a request waiting for their worker (limit %d)"
         len cap)
  else Ok ()

let error_rate_health ?(threshold_pct = 50) ?(min_events = 10) () =
  let last = ref (Obs.Counter.value c_requests, total_errors ()) in
  fun () ->
    let req = Obs.Counter.value c_requests and err = total_errors () in
    let lreq, lerr = !last in
    last := (req, err);
    let dreq = req - lreq and derr = err - lerr in
    if dreq >= min_events && derr * 100 > dreq * threshold_pct then
      Error
        (Printf.sprintf "%d errors in the last %d requests (%d%%)" derr dreq
           (derr * 100 / dreq))
    else Ok ()

let register_health_checks t =
  Serve.register_health "authority.queue" (queue_health t);
  Serve.register_health "authority.errors" (error_rate_health ())

let unregister_health_checks () =
  Serve.unregister_health "authority.queue";
  Serve.unregister_health "authority.errors"

let start ?(workers = 2) ?(beacon_period_ms = 1000) ~config ~router addr =
  if workers < 1 then invalid_arg "Authority.start: workers must be >= 1";
  if beacon_period_ms < 1 then
    invalid_arg "Authority.start: beacon_period_ms must be >= 1";
  match Peace_sock.listen addr with
  | Error _ as e -> e
  | Ok (listener, bound) ->
    Unix.set_nonblock listener;
    let t =
      {
        listener;
        bound;
        stop_flag = Atomic.make false;
        held = Array.init workers (fun _ -> Atomic.make 0);
        wake =
          Array.init workers (fun _ ->
              let r, w = Unix.pipe ~cloexec:true () in
              Unix.set_nonblock r;
              Unix.set_nonblock w;
              (r, w));
        waiting = Atomic.make 0;
        config;
        router;
        router_mu = Mutex.create ();
        beacon_period_ms;
        cached_beacon = None;
        workers = [];
        stopped = Atomic.make false;
      }
    in
    t.workers <- List.init workers (fun i -> Domain.spawn (worker t i));
    register_health_checks t;
    Log.info
      ~attrs:[ ("addr", Peace_sock.addr_to_string bound) ]
      "authority listening";
    Ok t

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    unregister_health_checks ();
    Log.info "authority stopping";
    Atomic.set t.stop_flag true;
    List.iter Domain.join t.workers;
    Array.iter
      (fun (r, w) ->
        Peace_sock.close_noerr r;
        Peace_sock.close_noerr w)
      t.wake;
    Peace_sock.close_noerr t.listener;
    match t.bound with
    | Peace_sock.Unix_path path -> Peace_sock.unlink_noerr path
    | Peace_sock.Tcp _ -> ()
  end

let service_counters () =
  let keep (name, _) = String.length name >= 8 && String.sub name 0 8 = "service." in
  List.filter keep (Obs.counters ()) @ List.filter keep (Obs.gauges ())

(* The stock rule set `peace serve-auth --alerts default` loads: the
   SLO burn mirrors the /healthz error-rate check but with proper
   multi-window debounce, the queue threshold mirrors queue_health, the
   storm/reuse detectors watch the audit stream, and the anomaly rule
   watches the end-to-end request latency histogram. Windows are short
   (seconds, not Prometheus-style hours) because the authority's traffic
   is bursty lab load, not a month-long error budget. *)
let default_alert_rules =
  "# PEACE authority stock alert rules\n\
   error-burn=burn:service.errors_total/service.connections_total:15s,1m:10%\n\
   queue-full=over:service.conn_queue_depth:8:5s\n\
   reject-storm=storm:6:20:30s\n\
   revoked-reuse=reuse:5:5m\n\
   latency-anomaly=anomaly:service.request_ns:4:10s\n"
