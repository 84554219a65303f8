open Peace_core
module Obs = Peace_obs.Registry
module Trace = Peace_obs.Trace
module Log = Peace_obs.Log
module Serve = Peace_obs.Serve
module Bq = Bounded_queue

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

type t = {
  listener : Unix.file_descr;
  bound : Peace_sock.addr;
  stop_flag : bool Atomic.t;
  conns : Unix.file_descr Bq.t;
  config : Config.t;
  router : Mesh_router.t;
  router_mu : Mutex.t;
  beacon_period_ms : int;
  mutable cached_beacon : (int * Messages.beacon) option;
  mutable acceptor : unit Domain.t option;
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

let serve_conn t fd =
  (* the receive timeout is what lets an idle connection notice the stop
     flag: a parked read wakes every 250 ms and re-checks *)
  Peace_sock.set_timeout fd 0.25;
  Obs.Counter.incr c_connections;
  Obs.Gauge.incr g_active;
  Fun.protect
    ~finally:(fun () ->
      Obs.Gauge.decr g_active;
      Peace_sock.close_noerr fd)
    (fun () ->
      let rec loop () =
        if not (Atomic.get t.stop_flag) then begin
          match Frames.read fd with
          | Error `Timeout -> loop ()
          | Error `Eof -> ()
          | Error (`Err reason) ->
            (* the stream has lost frame sync — count it and hang up; the
               server itself keeps serving everyone else *)
            count_error "frame";
            Log.warn ~attrs:[ ("reason", reason) ] "frame sync lost, closing connection"
          | Ok (Frames.Traced, payload) -> (
            (* peel the trace envelope here so the dispatch below sees
               only ordinary request tags; a bad envelope is a payload
               error: reject and keep the connection *)
            match Frames.unwrap_traced payload with
            | Error reason ->
              Obs.Counter.incr c_requests;
              count_error "traced";
              Log.warn ~attrs:[ ("reason", reason) ] "bad traced envelope";
              (match
                 Frames.write fd Frames.Rejected
                   (Frames.rejected_payload ~code:0 ~detail:reason)
               with
              | Ok () -> loop ()
              | Error _ -> count_error "write")
            | Ok (tag, payload, ctx) ->
              if handle_frame ~ctx t fd tag payload then loop ())
          | Ok (tag, payload) -> if handle_frame t fd tag payload then loop ()
        end
      in
      loop ())

let worker_loop t () =
  let rec next () =
    match Bq.pop t.conns with
    | None -> ()
    | Some fd ->
      Obs.Gauge.set g_queue_depth (Bq.length t.conns);
      if Atomic.get t.stop_flag then Peace_sock.close_noerr fd
      else begin
        Obs.Gauge.incr g_workers_busy;
        (* serve_conn's Fun.protect owns the close — never close here, or
           a racing accept could reuse the fd number and lose a socket *)
        (try serve_conn t fd
         with _ ->
           count_error "internal";
           Log.error "worker crashed serving a connection");
        Obs.Gauge.decr g_workers_busy
      end;
      next ()
  in
  next ()

let acceptor_loop t () =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      (match Unix.select [ t.listener ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept t.listener with
        | exception
            Unix.Unix_error
              ( ( Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN
                | Unix.EWOULDBLOCK ),
                _,
                _ ) ->
          ()
        | exception Unix.Unix_error _ -> Atomic.set t.stop_flag true
        | client, _ -> (
          try
            Bq.push t.conns client;
            Obs.Gauge.set g_queue_depth (Bq.length t.conns)
          with Bq.Closed -> Peace_sock.close_noerr client))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* The authority's /healthz contribution. Two checks, re-evaluated per
   scrape:

   - queue saturation: the acceptor's connection queue is at capacity,
     i.e. producers are blocked and new clients are waiting in the TCP
     backlog — the first externally visible backpressure signal.
   - error-rate window: the fraction of errors among requests since the
     previous evaluation (stateful delta, so a burst of startup errors
     ages out after one scrape). Degraded above [threshold_pct] once at
     least [min_events] requests are in the window. *)
let queue_health t () =
  let len = Bq.length t.conns and cap = Bq.capacity t.conns in
  if len >= cap then
    Error (Printf.sprintf "connection queue saturated (%d/%d)" len cap)
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
        conns = Bq.create ~capacity:(4 * workers);
        config;
        router;
        router_mu = Mutex.create ();
        beacon_period_ms;
        cached_beacon = None;
        acceptor = None;
        workers = [];
        stopped = Atomic.make false;
      }
    in
    t.acceptor <- Some (Domain.spawn (acceptor_loop t));
    t.workers <- List.init workers (fun _ -> Domain.spawn (worker_loop t));
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
    Bq.close t.conns;
    (match t.acceptor with Some d -> Domain.join d | None -> ());
    List.iter Domain.join t.workers;
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
