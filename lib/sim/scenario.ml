open Peace_bigint
open Peace_pairing
open Peace_groupsig
open Peace_core
module Registry = Peace_obs.Registry
module Audit = Peace_obs.Audit

(* Per-operation processing costs in milliseconds of simulated time,
   with magnitudes from the light-parameter measurements of this repo's
   benchmark (see EXPERIMENTS.md) scaled to era-appropriate hardware. *)
type cost_model = {
  sign_ms : float;  (* user: group signature generation *)
  verify_base_ms : float;  (* router: proof check with empty URL *)
  verify_per_token_ms : float;  (* router: each revocation token *)
  beacon_validate_ms : float;  (* user: certificate + ECDSA checks *)
  puzzle_check_ms : float;  (* router: one hash *)
}

let cost =
  {
    sign_ms = 40.0;
    verify_base_ms = 60.0;
    verify_per_token_ms = 9.0;
    beacon_validate_ms = 5.0;
    puzzle_check_ms = 0.02;
  }

(* ------------------------------------------------------------------ *)
(* Message envelopes on the simulated radio                            *)
(* ------------------------------------------------------------------ *)

let tag_beacon = 1
let tag_access_request = 2
let tag_access_confirm = 3

(* [req] is a request id for cross-event tracing: the root span id of the
   handshake this frame belongs to (0 = untraced). It rides the simulated
   radio only — the real protocol messages inside [payload] are unchanged —
   so a router can parent its processing span under the user's handshake
   span even though the two run in different events. *)
let envelope ?(req = 0) ~tag ~sender payload =
  let w = Wire.writer () in
  Wire.u8 w tag;
  Wire.u32 w sender;
  Wire.u32 w req;
  Wire.bytes w payload;
  Wire.contents w

let parse_envelope s =
  let open Wire in
  let r = reader s in
  match
    let* tag = read_u8 r in
    let* sender = read_u32 r in
    let* req = read_u32 r in
    let* payload = read_bytes r in
    let* () = expect_end r in
    Ok (tag, sender, req, payload)
  with
  | Ok v -> Some v
  | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Common scaffolding                                                  *)
(* ------------------------------------------------------------------ *)

type world = {
  engine : Engine.t;
  rand : Sim_rand.t;
  config : Config.t;
  deployment : Deployment.t;
  net : Net.t;
  metrics : Registry.t;
      (* the run's own counters and histograms; the live series
         ([sim.router.*], [sim.engine.*], [sim.net.*], [sim.faults.*])
         stay process-wide, where /metrics and alert rules read them *)
  faults : Faults.link option;
}

let make_world ?(seed = 42) ?(faults = Faults.none) () =
  let engine = Engine.create () in
  let rand = Sim_rand.create ~seed in
  let config = Config.tiny_test ~clock:(Engine.clock engine) () in
  let deployment =
    Deployment.create ~seed:(Printf.sprintf "sim-%d" seed) config
  in
  (* the fault link gets its own stream derived from the seed: injecting
     faults never perturbs the scenario's placement/arrival draws, so a
     plan of [none] stays bit-identical to a fault-free run *)
  let link =
    if Faults.is_none faults then None
    else Some (Faults.link ~seed:(seed lxor 0x5eed17) faults)
  in
  let net = Net.create engine ?faults:link () in
  {
    engine;
    rand;
    config;
    deployment;
    net;
    metrics = Registry.create ();
    faults = link;
  }

let tally world name =
  Registry.(Counter.incr (counter ~registry:world.metrics name))

let observe world name v =
  Registry.(Histogram.observe (histogram ~registry:world.metrics name) v)

(* a counter's count or a histogram's mean, 0 for what the run never
   recorded; reading creates nothing, so the run's counter list is
   exactly what it incremented *)
let read world name =
  Option.value ~default:0.0 (Registry.lookup ~registry:world.metrics name)

let count world name = int_of_float (read world name)

(* pad the operator's URL with [n] revoked-but-never-assigned keys so the
   revocation scan costs what the paper's analysis predicts *)
let pad_url world n =
  if n > 0 then begin
    let padding_group = 999_999 in
    ignore (Deployment.add_group world.deployment ~group_id:padding_group ~size:n);
    for index = 0 to n - 1 do
      Network_operator.revoke_user_key
        (Deployment.operator world.deployment)
        ~group_id:padding_group ~index
    done;
    Deployment.refresh_routers world.deployment
  end

let ms f = Stdlib.max 0 (int_of_float (ceil f))

(* enrol one member of [group_id]; the uid doubles as name and national id *)
let add_member world ~group_id uid =
  match
    Deployment.add_user world.deployment
      (Identity.make ~uid ~name:uid ~national_id:uid
         [ { Identity.group_id; description = "resident" } ])
  with
  | Ok user -> user
  | Error reason -> failwith ("add_member " ^ uid ^ ": " ^ reason)

let random_pos world area =
  (Sim_rand.float world.rand area, Sim_rand.float world.rand area)

(* router [i] of [n] in the middle of its cell of a square grid *)
let grid_position ~n ~area i =
  let grid = int_of_float (ceil (sqrt (float_of_int n))) in
  let cell = area /. float_of_int grid in
  ( (float_of_int (i mod grid) +. 0.5) *. cell,
    (float_of_int (i / grid) +. 0.5) *. cell )

(* --- router service model: a queue in front of the real handler --- *)

type router_node = {
  rn : Mesh_router.t;
  rn_addr : int;
  mutable rn_busy_until : int;
  mutable rn_busy_total : float;
  mutable rn_queue : int;
  (* crash/restart churn: while down the router is off the radio and emits
     no beacons; the epoch invalidates service jobs in flight at the crash *)
  mutable rn_down : bool;
  mutable rn_epoch : int;
  (* per-router labeled registry series (router="rN"): load, queue depth,
     and revocation-scan length, scrapeable via `peace serve` /metrics *)
  rn_c_requests : Registry.Counter.t;
  rn_g_queue : Registry.Gauge.t;
  rn_h_scan : Registry.Histogram.t;
}

(* a router drops an (M.2) that finds this many ahead of it *)
let queue_limit = 64

let make_router_node ~addr rn =
  let labels = [ ("router", "r" ^ string_of_int addr) ] in
  {
    rn;
    rn_addr = addr;
    rn_busy_until = 0;
    rn_busy_total = 0.0;
    rn_queue = 0;
    rn_down = false;
    rn_epoch = 0;
    rn_c_requests = Registry.counter ~labels "sim.router.requests_total";
    rn_g_queue = Registry.gauge ~labels "sim.router.queue_depth";
    rn_h_scan = Registry.histogram ~labels "sim.router.scan_len";
  }

(* crash/restart one router according to the fault plan's churn cycle:
   round-robin over [nodes], each crash unregisters the radio endpoint,
   wipes the service queue (RAM state dies with the process) and silences
   beacons until the restart re-registers the same handler *)
let drive_churn world ~duration_ms ~churn nodes =
  match (churn : Faults.churn option) with
  | None -> ()
  | Some { Faults.churn_period_ms; churn_downtime_ms } ->
    let n = List.length nodes in
    let next = ref 0 in
    if n > 0 then
      Engine.schedule_every world.engine ~period:churn_period_ms
        ~until:(1_000_000 + duration_ms) (fun () ->
          let node, pos, handler = List.nth nodes (!next mod n) in
          incr next;
          if not node.rn_down then begin
            node.rn_down <- true;
            node.rn_epoch <- node.rn_epoch + 1;
            node.rn_queue <- 0;
            node.rn_busy_until <- 0;
            Registry.Gauge.set node.rn_g_queue 0;
            Net.unregister world.net node.rn_addr;
            tally world "faults.crashes";
            Engine.schedule world.engine ~delay:churn_downtime_ms (fun () ->
                node.rn_down <- false;
                Net.register world.net node.rn_addr ~pos handler;
                tally world "faults.restarts")
          end)

(* a span is only opened when a trace collector is live AND the frame
   carries a request id — the untraced paths stay allocation-free *)
let sim_span world ~req ~name =
  if req > 0 && Peace_obs.Trace.collector_active () then
    Some
      (Peace_obs.Trace.start ~parent:req ~ts:(Engine.now world.engine) name)
  else None

let sim_finish world = function
  | None -> ()
  | Some h -> Peace_obs.Trace.finish ~ts:(Engine.now world.engine) h

let router_service world node ~url_size ~sender ~under_attack ~req
    ?on_accept ?meter request =
  (* charge the modeled processing time, then run the real handler *)
  let now = Engine.now world.engine in
  let service_cost =
    (if under_attack then cost.puzzle_check_ms else 0.0)
    +. cost.verify_base_ms
    +. (cost.verify_per_token_ms *. float_of_int url_size)
  in
  Registry.Counter.incr node.rn_c_requests;
  Registry.Histogram.observe node.rn_h_scan url_size;
  if node.rn_queue >= queue_limit then
    tally world "router.dropped_queue_full"
  else begin
    node.rn_queue <- node.rn_queue + 1;
    Registry.Gauge.set node.rn_g_queue node.rn_queue;
    (* the span covers queueing + modeled verify: it opens in this event
       and closes in the scheduled one, parented on the id that travelled
       inside the (M.2) envelope *)
    let span = sim_span world ~req ~name:"sim.router.service" in
    let epoch = node.rn_epoch in
    let start = Stdlib.max now node.rn_busy_until in
    let finish = start + ms service_cost in
    node.rn_busy_until <- finish;
    node.rn_busy_total <- node.rn_busy_total +. service_cost;
    Engine.schedule_at world.engine ~time:finish (fun () ->
        if node.rn_epoch <> epoch then
          (* the router crashed mid-service: the in-flight job dies with it *)
          tally world "router.dropped_crash"
        else begin
          node.rn_queue <- node.rn_queue - 1;
          Registry.Gauge.set node.rn_g_queue node.rn_queue;
          match Mesh_router.handle_access_request node.rn request with
          | Ok (confirm, session) ->
            tally world "router.accepted";
            (match on_accept with Some f -> f sender | None -> ());
            let confirm_bytes =
              Messages.access_confirm_to_bytes world.config confirm
            in
            (* billing hook: meter the handshake itself as a (brief)
               session — M.2 bytes up, M.3 bytes down, the modeled
               service time as duration — and close it immediately so
               the run ends with an invoiceable usage table. Draws no
               randomness: metered runs replay bit-identically. *)
            (match meter with
            | None -> ()
            | Some (m, rx_bytes) ->
              let session_id = Session.id session in
              Accounting.record_up m ~session_id ~bytes:rx_bytes;
              Accounting.record_down m ~session_id
                ~bytes:(String.length confirm_bytes);
              ignore
                (Accounting.close_session m ~session_id
                   ~duration_ms:(int_of_float service_cost)));
            Net.send world.net ~src:node.rn_addr ~dst:sender
              (envelope ~req ~tag:tag_access_confirm ~sender:node.rn_addr
                 confirm_bytes)
          | Error e ->
            tally world ("router.rejected." ^ Protocol_error.to_string e)
        end;
        sim_finish world span)
  end

(* the router's radio handler: decode the (M.2) and queue it for the
   service model. [on_request] sees the sender of every decoded request. *)
let router_endpoint ?on_accept ?meter ?(on_request = ignore) world node
    ~url_size ~under_attack payload =
  match parse_envelope payload with
  | Some (tag, sender, req, body) when tag = tag_access_request -> begin
    match
      Messages.access_request_of_bytes world.config
        (Deployment.gpk world.deployment)
        body
    with
    | Some request ->
      on_request sender;
      router_service world node ~url_size ~sender ~under_attack ~req
        ?on_accept
        ?meter:(Option.map (fun m -> (m, String.length body)) meter)
        request
    | None -> tally world "router.unparseable"
  end
  | Some _ -> ()
  | None ->
    tally world
      ("router.dropped."
      ^ Protocol_error.to_string Protocol_error.Malformed_frame)

(* every router beacons (M.1) each [period] ms; a crashed one stays silent *)
let broadcast_beacons world ~period ~range ~duration_ms nodes =
  List.iter
    (fun node ->
      Engine.schedule_every world.engine ~period
        ~until:(Engine.now world.engine + duration_ms) (fun () ->
          if not node.rn_down then begin
            let beacon = Mesh_router.beacon node.rn in
            Net.broadcast world.net ~src:node.rn_addr ~range
              (envelope ~tag:tag_beacon ~sender:node.rn_addr
                 (Messages.beacon_to_bytes world.config beacon))
          end))
    nodes

(* keep revocation lists fresh so beacons stay acceptable; [after] runs
   after each refresh *)
let refresh_lists ?(after = ignore) world ~duration_ms =
  Engine.schedule_every world.engine
    ~period:(world.config.Config.crl_period_ms / 2)
    ~until:(Engine.now world.engine + duration_ms)
    (fun () ->
      Deployment.refresh_routers world.deployment;
      after ())

(* --- the user side of the handshake --- *)

type user_node = {
  un : User.t;
  un_addr : int;
  mutable un_want_auth : bool;
  mutable un_attempt_started : int;
  mutable un_m2_sent : int;
  mutable un_pending : User.pending_access option;
  mutable un_busy : bool; (* currently computing (modeled delay) *)
  mutable un_span : Peace_obs.Trace.handle option;
      (* root span of the current authentication attempt; its id rides in
         the envelope [req] field so router-side spans stitch onto it *)
  (* hardened-handshake state: the serialised (M.2) kept for
     retransmission, the backoff ladder position, and an epoch that
     cancels stale retransmission timers when the attempt resolves *)
  mutable un_frame : (int * string) option; (* dst router, (M.2) envelope *)
  mutable un_retx_left : int;
  mutable un_backoff_ms : int;
  mutable un_epoch : int;
  mutable un_avoid : int; (* router of the last abandoned attempt, -1 none *)
  mutable un_avoid_until : int;
  mutable un_trouble_at : int; (* first retransmission of this attempt *)
}

let fresh_user_node ~un ~un_addr =
  {
    un;
    un_addr;
    un_want_auth = false;
    un_attempt_started = 0;
    un_m2_sent = 0;
    un_pending = None;
    un_busy = false;
    un_span = None;
    un_frame = None;
    un_retx_left = 0;
    un_backoff_ms = 0;
    un_epoch = 0;
    un_avoid = -1;
    un_avoid_until = 0;
    un_trouble_at = 0;
  }

(* the beacon in [body], if it may start an attempt: the user wants
   access, has no (M.2) outstanding and is not busy signing one *)
let beacon_for world node body =
  if node.un_want_auth && node.un_pending = None && not node.un_busy then
    Messages.beacon_of_bytes world.config body
  else None

(* an (M.3) whose echoed shares are not the pending request's answers
   some other request: like an undecodable one, it leaves the pending
   request waiting *)
let answers_pending = function
  | Error Protocol_error.Unknown_session -> false
  | Ok _ | Error _ -> true

(* the user's radio handler: each beacon goes to [on_beacon sender body];
   an (M.3) answering the pending (M.2) clears it, and the outcome goes to
   [on_confirm] *)
let user_endpoint world node ~on_beacon ~on_confirm payload =
  match parse_envelope payload with
  | Some (tag, sender, _req, body) when tag = tag_beacon -> on_beacon sender body
  | Some (tag, _sender, _req, body) when tag = tag_access_confirm -> begin
    match
      (node.un_pending, Messages.access_confirm_of_bytes world.config body)
    with
    | Some pending, Some confirm ->
      let outcome = User.process_confirm node.un pending confirm in
      if answers_pending outcome then begin
        node.un_pending <- None;
        on_confirm outcome
      end
    | _ -> ()
  end
  | Some _ -> ()
  | None ->
    tally world
      ("user.dropped." ^ Protocol_error.to_string Protocol_error.Malformed_frame)

(* the user's signing step: busy for the modeled validate-and-sign time,
   then the real (M.2) becomes the pending attempt and [k] gets its
   envelope. With [router_service], the only place the cost model is
   charged. *)
let sign_request world node beacon k =
  node.un_busy <- true;
  (* the request id is the root span id: it survives the schedule hop here
     and the radio hop to the router *)
  let req =
    match node.un_span with Some root -> Peace_obs.Trace.id root | None -> 0
  in
  let span = sim_span world ~req ~name:"sim.user.sign" in
  Engine.schedule world.engine
    ~delay:(ms (cost.beacon_validate_ms +. cost.sign_ms))
    (fun () ->
      node.un_busy <- false;
      sim_finish world span;
      match User.process_beacon node.un beacon with
      | Ok (request, pending) ->
        node.un_pending <- Some pending;
        node.un_m2_sent <- Engine.now world.engine;
        k
          (Ok
             (envelope ~req ~tag:tag_access_request ~sender:node.un_addr
                (Messages.access_request_to_bytes world.config
                   (Deployment.gpk world.deployment)
                   request)))
      | Error e -> k (Error e))

(* --- outsiders: a group key from a foreign issuer --- *)

let outsider world ~seed =
  let rng = Sim_rand.bytes_fn (Sim_rand.create ~seed) in
  let issuer = Group_sig.setup world.config.Config.pairing rng in
  (issuer, Group_sig.issue issuer ~grp:Bigint.one rng, rng)

(* an outsider's (M.2) answering [beacon]: it parses, but its signature
   never verifies. Draws the DH share, then the signature. *)
let forged_request world (issuer, key, rng) beacon ~puzzle_solution =
  let params = world.config.Config.pairing in
  let r_j = Bigint.random_range rng Bigint.one params.Params.q in
  let g_rj = G1.mul params r_j beacon.Messages.g in
  let ts2 = Engine.now world.engine in
  let gsig =
    Group_sig.sign issuer.Group_sig.gpk key ~rng
      ~msg:(Messages.auth_transcript world.config g_rj beacon.Messages.g_rr ts2)
  in
  { Messages.g_rj; ar_g_rr = beacon.Messages.g_rr; ts2; gsig; puzzle_solution }

(* ------------------------------------------------------------------ *)
(* E9: city-scale authentication                                       *)
(* ------------------------------------------------------------------ *)

type city_result = {
  cr_attempts : int;
  cr_successes : int;
  cr_failures : (string * int) list;
  cr_handshake_mean_ms : float;
  cr_handshake_p95_ms : float;
  cr_time_to_auth_mean_ms : float;
  cr_bytes_on_air : int;
  cr_router_utilisation : float;
  cr_retransmissions : int;
  cr_timeouts : int;
  cr_failovers : int;
  cr_recovery_mean_ms : float;
  cr_fault_counters : (string * int) list;
  cr_invoices : Accounting.invoice_line list;
  cr_alerts : (int * string * Peace_obs.Alert.state) list;
}

(* hardened-handshake retransmission parameters (documented in the mli):
   first retry after [retx_base_ms] + jitter, doubling up to [retx_cap_ms],
   at most [retx_max] retransmissions before the attempt is abandoned as
   {!Protocol_error.Timeout} and the user fails over to the next live
   router it hears. The unhardened path keeps the legacy single fixed
   timeout instead. *)
let retx_base_ms = 1_000
let retx_cap_ms = 8_000
let retx_max = 4
let retx_jitter_ms = 250
let legacy_timeout_ms = 3_000

(* the run's ledger signer: the keypair is derived from the seed, so the
   genesis pk and every checkpoint signature repeat run to run *)
let audit_signer seed =
  let open Peace_ec in
  let curve = Lazy.force Curves.secp160r1 in
  let seed = Printf.sprintf "peace-sim-audit-%d" seed in
  let key = Ecdsa.generate curve Peace_hash.Drbg.(bytes_fn (create ~seed ())) in
  Network_operator.audit_signer curve ~public:key.Ecdsa.q ~sign:(Ecdsa.sign curve ~key)

let city_auth ?(seed = 42) ?(area_m = 2000.0) ?(range_m = 450.0)
    ?(beacon_period_ms = 500) ?(url_size = 0) ?(faults = Faults.none)
    ?(hardened = true) ?(invoices = false) ?sampler ?(alert_rules = [])
    ?(audit = ignore) ~n_routers ~n_users ~duration_ms ~mean_interarrival_ms ()
    =
  (* the run keeps its own ledger, in memory and installed for the run:
     the invoice reads it, and [audit] sees each line as it is appended *)
  let ledger_lines = ref [] in
  let ledger =
    Audit.create ~signer:(audit_signer seed)
      ~sink:(fun line -> ledger_lines := line :: !ledger_lines; audit line)
      ~meta:[ ("source", "simulate-city"); ("seed", string_of_int seed) ]
      ()
  in
  let installed = Audit.installed () in
  Audit.install (Some ledger);
  Fun.protect ~finally:(fun () -> Audit.seal ledger; Audit.install installed)
  @@ fun () ->
  let world = make_world ~seed ~faults () in
  (* alert rules evaluate on simulated time: the evaluator clock is the
     engine clock and an eval tick runs once per simulated second, so a
     given seed and fault plan produce the same firing sequence at the
     same sim timestamps on every run *)
  let alerts =
    match alert_rules with
    | [] -> None
    | rules ->
      let t =
        Peace_obs.Alert.create ~now:(fun () -> Engine.now world.engine) rules
      in
      Peace_obs.Alert.install_tap t;
      Engine.schedule_every world.engine ~period:1_000
        ~until:(1_000_000 + duration_ms) (fun () ->
          ignore (Peace_obs.Alert.eval t));
      Some t
  in
  (* retransmission jitter has its own stream: hardened but fault-free
     runs draw exactly the same placement/arrival sequence as before *)
  let retx_rand = Sim_rand.create ~seed:(seed lxor 0x0707) in
  let group_id = 1 in
  ignore (Deployment.add_group world.deployment ~group_id ~size:n_users);
  pad_url world url_size;
  let user_base_addr = 10_000 in
  (* the staleness partition freezes the last router's revocation lists
     while user 0 gets revoked: every admission it still grants that user
     afterwards is a stale accept *)
  let stale_router_addr =
    match faults.Faults.stale_after_ms with
    | Some _ when n_routers > 0 -> n_routers - 1
    | _ -> -1
  in
  let revoked_addr = ref (-1) in
  (* the one percentile the simulator reports needs exact samples; its
     histogram keeps only log buckets *)
  let handshakes = ref [] in
  let on_accept node sender =
    if node.rn_addr = stale_router_addr && sender = !revoked_addr then
      tally world "faults.stale_accepts"
  in
  (* the city's session meter, kept for §IV-D attribution after the run *)
  let meter = if invoices then Some (Accounting.create_meter ()) else None in
  let routers =
    List.init n_routers (fun i ->
        let router = Deployment.add_router world.deployment ~router_id:i in
        if hardened then Mesh_router.enable_resend_cache router;
        let pos = grid_position ~n:n_routers ~area:area_m i in
        let node = make_router_node ~addr:i router in
        let handler =
          router_endpoint ~on_accept:(on_accept node) ?meter world node
            ~url_size ~under_attack:false
        in
        Net.register world.net node.rn_addr ~pos handler;
        (node, pos, handler))
  in
  let router_nodes = List.map (fun (n, _, _) -> n) routers in
  (* users uniformly over the city *)
  let users =
    List.init n_users (fun i ->
        let node =
          fresh_user_node
            ~un:(add_member world ~group_id (Printf.sprintf "user-%d" i))
            ~un_addr:(user_base_addr + i)
        in
        let pos = random_pos world area_m in
        (* the attempt resolved (success, rejection or abandonment):
           bump the epoch so outstanding retransmission timers die *)
        let settle () =
          node.un_pending <- None;
          node.un_frame <- None;
          node.un_epoch <- node.un_epoch + 1
        in
        let abandon dst =
          settle ();
          node.un_avoid <- dst;
          node.un_avoid_until <-
            Engine.now world.engine + (2 * beacon_period_ms);
          tally world
            ("user.abandoned." ^ Protocol_error.to_string Protocol_error.Timeout)
        in
        let rec schedule_retx () =
          let epoch = node.un_epoch in
          let jitter = Sim_rand.int retx_rand (retx_jitter_ms + 1) in
          Engine.schedule world.engine ~delay:(node.un_backoff_ms + jitter)
            (fun () ->
              if node.un_epoch = epoch && node.un_pending <> None then begin
                match node.un_frame with
                | None -> ()
                | Some (dst, frame) ->
                  if node.un_retx_left > 0 then begin
                    node.un_retx_left <- node.un_retx_left - 1;
                    node.un_backoff_ms <-
                      Stdlib.min retx_cap_ms (node.un_backoff_ms * 2);
                    if node.un_trouble_at = 0 then
                      node.un_trouble_at <- Engine.now world.engine;
                    tally world "user.retransmissions";
                    Net.send world.net ~src:node.un_addr ~dst frame;
                    schedule_retx ()
                  end
                  else abandon dst
              end)
        in
        let on_beacon sender body =
          (* unhardened: a handshake whose M.2 or M.3 frame was lost waits
             out one fixed timeout and retries on a later beacon. Hardened
             attempts are driven by the retransmission timers instead. *)
          (if not hardened then
             match node.un_pending with
             | Some _
               when Engine.now world.engine - node.un_m2_sent > legacy_timeout_ms
               ->
               node.un_pending <- None;
               tally world "user.handshake_timeout"
             | _ -> ());
          if
            not
              (hardened && sender = node.un_avoid
              && Engine.now world.engine < node.un_avoid_until)
          then
            Option.iter
              (fun beacon ->
                sign_request world node beacon (function
                  | Ok frame ->
                    if hardened then begin
                      (* a fresh attempt at a different router after an
                         abandoned one is the failover *)
                      if node.un_avoid >= 0 && sender <> node.un_avoid then
                        tally world "user.failover";
                      node.un_avoid <- -1;
                      node.un_frame <- Some (sender, frame);
                      node.un_retx_left <- retx_max;
                      node.un_backoff_ms <- retx_base_ms;
                      node.un_epoch <- node.un_epoch + 1;
                      schedule_retx ()
                    end;
                    Net.send world.net ~src:node.un_addr ~dst:sender frame
                  | Error e ->
                    tally world
                      ("user.beacon_rejected." ^ Protocol_error.to_string e)))
              (beacon_for world node body)
        in
        let on_confirm = function
          | Ok _session ->
            settle ();
            node.un_want_auth <- false;
            let now = Engine.now world.engine in
            (* close the attempt's root span: its duration is the
               end-to-end (arrival → session) latency in sim ms *)
            (match node.un_span with
            | Some root ->
              Peace_obs.Trace.finish ~ts:now root;
              node.un_span <- None
            | None -> ());
            if node.un_trouble_at > 0 then begin
              observe world "recovery_ms" (now - node.un_trouble_at);
              node.un_trouble_at <- 0
            end;
            tally world "user.authenticated";
            observe world "handshake_ms" (now - node.un_m2_sent);
            handshakes := float_of_int (now - node.un_m2_sent) :: !handshakes;
            observe world "time_to_auth_ms" (now - node.un_attempt_started)
          | Error e ->
            settle ();
            tally world ("user.confirm_rejected." ^ Protocol_error.to_string e)
        in
        Net.register world.net node.un_addr ~pos
          (user_endpoint world node ~on_beacon ~on_confirm);
        node)
  in
  broadcast_beacons world ~period:beacon_period_ms ~range:range_m ~duration_ms
    router_nodes;
  (* the staleness partition: freeze the designated router's lists, then
     revoke user 0 everywhere else — honest routers reject it from that
     point on, the partitioned router keeps admitting it *)
  let stale_lists = ref None in
  let restore_stale () =
    match !stale_lists with
    | None -> ()
    | Some (crl, url) ->
      let node, _, _ = List.nth routers stale_router_addr in
      Mesh_router.update_lists node.rn crl url
  in
  (match faults.Faults.stale_after_ms with
  | None -> ()
  | Some after when stale_router_addr >= 0 ->
    Engine.schedule_at world.engine ~time:(1_000_000 + after) (fun () ->
        let no = Deployment.operator world.deployment in
        stale_lists :=
          Some (Network_operator.current_crl no, Network_operator.current_url no);
        revoked_addr := user_base_addr;
        (match Deployment.revoke_user world.deployment ~uid:"user-0" ~group_id with
        | Ok () -> ()
        | Error e -> failwith ("city_auth stale fault: " ^ e));
        Deployment.refresh_routers world.deployment;
        restore_stale ())
  | Some _ -> ());
  (* scheduled router crash/restart churn *)
  drive_churn world ~duration_ms ~churn:faults.Faults.churn routers;
  (* the partitioned router is re-frozen after every refresh *)
  refresh_lists world ~duration_ms ~after:restore_stale;
  (* Poisson (re-)authentication arrivals per user *)
  let attempts = ref 0 in
  List.iter
    (fun node ->
      let rec arrival () =
        let delay = ms (Sim_rand.exponential world.rand ~mean:mean_interarrival_ms) in
        Engine.schedule world.engine ~delay (fun () ->
            if Engine.now world.engine <= 1_000_000 + duration_ms then begin
              if not node.un_want_auth then begin
                node.un_want_auth <- true;
                node.un_attempt_started <- Engine.now world.engine;
                if Peace_obs.Trace.collector_active () then
                  node.un_span <-
                    Some
                      (Peace_obs.Trace.start
                         ~attrs:[ ("user", string_of_int node.un_addr) ]
                         ~ts:(Engine.now world.engine) "sim.handshake");
                incr attempts
              end;
              arrival ()
            end)
      in
      arrival ())
    users;
  (* timeline telemetry: snapshot city-wide gauges on simulated time *)
  (match sampler with
  | None -> ()
  | Some s ->
    let track name f = ignore (Peace_obs.Timeseries.track s name f) in
    track "sim.router.queue_depth" (fun () ->
        List.fold_left
          (fun acc node -> acc +. float_of_int node.rn_queue)
          0.0 router_nodes);
    track "sim.handshakes.inflight" (fun () ->
        List.fold_left
          (fun acc u -> if u.un_pending <> None then acc +. 1.0 else acc)
          0.0 users);
    track "sim.authenticated" (fun () -> read world "user.authenticated");
    track "sim.net.bytes_on_air" (fun () ->
        float_of_int (Net.bytes_sent world.net));
    Engine.attach_sampler world.engine ~period:1_000
      ~until:(1_000_000 + duration_ms) s);
  Engine.run ~until:(1_000_000 + duration_ms) world.engine;
  (match alerts with Some _ -> Peace_obs.Alert.uninstall_tap () | None -> ());
  let successes = count world "user.authenticated" in
  let handshakes = Array.of_list !handshakes in
  Array.sort compare handshakes;
  let failures =
    List.filter
      (fun (name, _) ->
        String.length name > 5
        && (String.sub name 0 5 = "user." || String.sub name 0 7 = "router.")
        && name <> "user.authenticated" && name <> "router.accepted"
        (* recovery activity, not failure classes *)
        && name <> "user.retransmissions"
        && name <> "user.failover")
      (Registry.counters ~registry:world.metrics ())
  in
  let util =
    List.fold_left
      (fun acc node -> acc +. (node.rn_busy_total /. float_of_int duration_ms))
      0.0 router_nodes
    /. float_of_int (List.length router_nodes)
  in
  (* §IV-D attribution: every metered session's accept record, read from
     the run's ledger, opens at the operator to its group *)
  let invoice_table =
    Option.fold meter ~none:[] ~some:(fun m ->
        Accounting.invoice (Deployment.operator world.deployment)
          ~ledger:(List.rev !ledger_lines) m)
  in
  {
    cr_attempts = !attempts;
    cr_successes = successes;
    cr_failures = failures;
    cr_handshake_mean_ms = read world "handshake_ms";
    cr_handshake_p95_ms = Registry.percentile handshakes 95.0;
    cr_time_to_auth_mean_ms = read world "time_to_auth_ms";
    cr_bytes_on_air = Net.bytes_sent world.net;
    cr_router_utilisation = util;
    cr_retransmissions = count world "user.retransmissions";
    cr_timeouts = count world "user.abandoned.timeout";
    cr_failovers = count world "user.failover";
    cr_recovery_mean_ms = read world "recovery_ms";
    cr_fault_counters =
      (match world.faults with Some l -> Faults.counters l | None -> [])
      @ [
          ("crashes", count world "faults.crashes");
          ("restarts", count world "faults.restarts");
          ("stale_accepts", count world "faults.stale_accepts");
          ("dropped_unknown", Net.frames_dropped_unknown world.net);
        ];
    cr_invoices = invoice_table;
    cr_alerts =
      (match alerts with
      | Some t -> Peace_obs.Alert.transitions t
      | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* E7: DoS flooding and client puzzles                                 *)
(* ------------------------------------------------------------------ *)

type dos_result = {
  dr_legit_attempts : int;
  dr_legit_successes : int;
  dr_bogus_received : int;
  dr_expensive_verifications : int;
  dr_cheap_rejections : int;
  dr_router_utilisation : float;
  dr_attacker_hashes : int;
}

let dos_attack ?(seed = 42) ~puzzles
    ?(puzzle_difficulty = 8) ?(attacker_hash_rate_per_ms = 500.0)
    ?(faults = Faults.none) ~attack_rate_per_s ~legit_rate_per_s ~duration_ms
    () =
  let world = make_world ~seed ~faults () in
  let group_id = 1 in
  let n_users = 20 in
  ignore (Deployment.add_group world.deployment ~group_id ~size:n_users);
  let router = Deployment.add_router world.deployment ~router_id:0 in
  if puzzles then Mesh_router.set_under_attack router ~difficulty:puzzle_difficulty;
  let node = make_router_node ~addr:0 router in
  let attacker_addr = 90_000 in
  let bogus_received = ref 0 in
  let router_handler =
    router_endpoint
      ~on_request:(fun sender ->
        if sender >= attacker_addr then incr bogus_received)
      world node ~url_size:0 ~under_attack:puzzles
  in
  Net.register world.net 0 ~pos:(0.0, 0.0) router_handler;
  (* the fault plan's channel effects ride the Net link; churn crashes the
     single router (the staleness partition needs >1 router and is a
     city_auth-only fault) *)
  drive_churn world ~duration_ms ~churn:faults.Faults.churn
    [ (node, (0.0, 0.0), router_handler) ];
  (* legitimate users near the router *)
  let users =
    List.init n_users (fun i ->
        let node_u =
          fresh_user_node
            ~un:(add_member world ~group_id (Printf.sprintf "user-%d" i))
            ~un_addr:(10_000 + i)
        in
        let on_beacon sender body =
          Option.iter
            (fun beacon ->
              let work_before = User.puzzle_work_done node_u.un in
              sign_request world node_u beacon (function
                | Ok frame ->
                  (* puzzle solving costs the user real simulated time; the
                     pending attempt keeps later beacons off meanwhile *)
                  let work = User.puzzle_work_done node_u.un - work_before in
                  Engine.schedule world.engine
                    ~delay:(ms (float_of_int work /. attacker_hash_rate_per_ms))
                    (fun () ->
                      Net.send world.net ~src:node_u.un_addr ~dst:sender frame)
                | Error _ -> ()))
            (beacon_for world node_u body)
        in
        let on_confirm = function
          | Ok _ ->
            node_u.un_want_auth <- false;
            tally world "user.authenticated"
          | Error _ -> ()
        in
        Net.register world.net node_u.un_addr ~pos:(random_pos world 100.0)
          (user_endpoint world node_u ~on_beacon ~on_confirm);
        node_u)
  in
  broadcast_beacons world ~period:500 ~range:500.0 ~duration_ms [ node ];
  refresh_lists world ~duration_ms;
  (* legit arrivals: pick an idle user at random *)
  let legit_attempts = ref 0 in
  let legit_mean_ms = 1000.0 /. legit_rate_per_s in
  let rec legit_arrival () =
    let delay = ms (Sim_rand.exponential world.rand ~mean:legit_mean_ms) in
    Engine.schedule world.engine ~delay (fun () ->
        if Engine.now world.engine <= 1_000_000 + duration_ms then begin
          let idle = List.filter (fun u -> not u.un_want_auth) users in
          (match idle with
          | [] -> ()
          | _ ->
            let u = List.nth idle (Sim_rand.int world.rand (List.length idle)) in
            u.un_want_auth <- true;
            u.un_attempt_started <- Engine.now world.engine;
            incr legit_attempts);
          legit_arrival ()
        end)
  in
  legit_arrival ();
  (* the flooder: a foreign key whose signatures parse but never verify *)
  let attacker = outsider world ~seed:(seed + 7) in
  let latest_beacon = ref None in
  let attacker_hashes = ref 0 in
  Net.register world.net attacker_addr ~pos:(10.0, 10.0) (fun payload ->
      match parse_envelope payload with
      | Some (tag, _sender, _req, body) when tag = tag_beacon ->
        latest_beacon := Messages.beacon_of_bytes world.config body
      | _ -> ());
  let attack_mean_ms = 1000.0 /. attack_rate_per_s in
  let rec attack () =
    let base_delay = Sim_rand.exponential world.rand ~mean:attack_mean_ms in
    Engine.schedule world.engine ~delay:(ms base_delay) (fun () ->
        if Engine.now world.engine <= 1_000_000 + duration_ms then begin
          match !latest_beacon with
          | None -> attack ()
          | Some beacon -> begin
            let send_after solve_delay puzzle_solution =
              Engine.schedule world.engine ~delay:solve_delay (fun () ->
                  let request =
                    forged_request world attacker beacon ~puzzle_solution
                  in
                  Net.send world.net ~src:attacker_addr ~dst:0
                    (envelope ~tag:tag_access_request ~sender:attacker_addr
                       (Messages.access_request_to_bytes world.config
                          (Deployment.gpk world.deployment)
                          request));
                  attack ())
            in
            match beacon.Messages.puzzle with
            | Some puzzle when puzzles -> begin
              (* the attacker must brute-force the puzzle *)
              match Puzzle.solve puzzle with
              | Some solution ->
                let work = Puzzle.solving_work puzzle solution in
                attacker_hashes := !attacker_hashes + work;
                send_after
                  (ms (float_of_int work /. attacker_hash_rate_per_ms))
                  (Some solution)
              | None -> attack ()
            end
            | _ -> send_after 0 None
          end
        end)
  in
  attack ();
  Engine.run ~until:(1_000_000 + duration_ms) world.engine;
  {
    dr_legit_attempts = !legit_attempts;
    dr_legit_successes = count world "user.authenticated";
    dr_bogus_received = !bogus_received;
    dr_expensive_verifications = Mesh_router.verifications_performed router;
    dr_cheap_rejections = Mesh_router.requests_rejected_cheaply router;
    dr_router_utilisation = node.rn_busy_total /. float_of_int duration_ms;
    dr_attacker_hashes = !attacker_hashes;
  }

(* ------------------------------------------------------------------ *)
(* E8: phishing window                                                 *)
(* ------------------------------------------------------------------ *)

type phishing_result = {
  pr_accepted_before_revocation : int;
  pr_accepted_in_window : int;
  pr_accepted_after_refresh : int;
  pr_window_ms : int;
}

let phishing ?(seed = 42) ~crl_refresh_ms ~revoke_at_ms ~duration_ms
    ~attempt_period_ms () =
  let world = make_world ~seed () in
  let group_id = 1 in
  ignore (Deployment.add_group world.deployment ~group_id ~size:4);
  (* router 1 will be compromised; router 2 stays honest *)
  let compromised = Deployment.add_router world.deployment ~router_id:1 in
  let _honest = Deployment.add_router world.deployment ~router_id:2 in
  let victim = add_member world ~group_id "victim" in
  let no = Deployment.operator world.deployment in
  (* freeze the compromised router's view: after revocation the adversary
     keeps replaying the last lists it obtained *)
  let revoked = ref false in
  let accepted_before = ref 0 in
  let accepted_window = ref 0 in
  let accepted_after_refresh = ref 0 in
  let last_refresh = ref 0 in
  (* the exposure window: the latest stale acceptance after revocation *)
  let window = ref 0 in
  let revoke_time = 1_000_000 + revoke_at_ms in
  (* the operator re-issues lists periodically; the compromised router only
     receives them while not revoked *)
  Engine.schedule_every world.engine
    ~period:(world.config.Config.crl_period_ms / 3)
    ~until:(Engine.now world.engine + duration_ms)
    (fun () ->
      Network_operator.refresh_lists no;
      if not !revoked then
        Mesh_router.update_lists compromised
          (Network_operator.current_crl no)
          (Network_operator.current_url no));
  Engine.schedule_at world.engine ~time:revoke_time (fun () ->
      Network_operator.revoke_router no ~router_id:1;
      revoked := true);
  (* the victim refreshes its CRL view from honest infrastructure *)
  Engine.schedule_every world.engine ~period:crl_refresh_ms ~until:(Engine.now world.engine + duration_ms)
    (fun () ->
      User.learn_lists victim
        (Network_operator.current_crl no)
        (Network_operator.current_url no);
      last_refresh := Engine.now world.engine);
  (* the victim periodically tries to use the (compromised) router *)
  Engine.schedule_every world.engine ~period:attempt_period_ms ~until:(Engine.now world.engine + duration_ms)
    (fun () ->
      let beacon = Mesh_router.beacon compromised in
      let now = Engine.now world.engine in
      match User.process_beacon victim beacon with
      | Ok _ ->
        if now < revoke_time then incr accepted_before
        else if !last_refresh > revoke_time then incr accepted_after_refresh
        else begin
          incr accepted_window;
          window := Stdlib.max !window (now - revoke_time)
        end
      | Error _ -> ());
  Engine.run ~until:(1_000_000 + duration_ms) world.engine;
  {
    pr_accepted_before_revocation = !accepted_before;
    pr_accepted_in_window = !accepted_window;
    pr_accepted_after_refresh = !accepted_after_refresh;
    pr_window_ms = !window;
  }

(* ------------------------------------------------------------------ *)
(* E8: attack matrix                                                   *)
(* ------------------------------------------------------------------ *)

type attack_matrix = {
  am_outsider_accepted : int;
  am_outsider_attempts : int;
  am_revoked_accepted : int;
  am_revoked_attempts : int;
  am_replay_accepted : int;
  am_replay_attempts : int;
  am_rogue_beacons_accepted : int;
  am_rogue_beacon_attempts : int;
  am_legit_accepted : int;
  am_legit_attempts : int;
}

let attack_matrix ?(seed = 42) ~attempts_per_class () =
  let world = make_world ~seed () in
  let config = world.config in
  let d = world.deployment in
  let n = attempts_per_class in
  ignore (Deployment.add_group d ~group_id:1 ~size:8);
  let router = Deployment.add_router d ~router_id:0 in
  let legit = add_member world ~group_id:1 "legit" in
  let mallory = add_member world ~group_id:1 "mallory" in
  (* revoke mallory *)
  (match Deployment.revoke_user d ~uid:"mallory" ~group_id:1 with
  | Ok () -> ()
  | Error e -> failwith e);
  let attacker = outsider world ~seed:(seed + 13) in
  let gpk = Deployment.gpk d in
  let count_accept f =
    let accepted = ref 0 in
    for _ = 1 to n do
      if f () then incr accepted
    done;
    !accepted
  in
  (* 1. outsider bogus injection *)
  let outsider_accepted =
    count_accept (fun () ->
        let beacon = Mesh_router.beacon router in
        Result.is_ok
          (Mesh_router.handle_access_request router
             (forged_request world attacker beacon ~puzzle_solution:None)))
  in
  (* 2. revoked user *)
  let revoked_accepted =
    count_accept (fun () ->
        Result.is_ok (Deployment.authenticate d ~user:mallory ~router ()))
  in
  (* 3. replay: capture a legit M.2 and resend it *)
  let replay_accepted =
    count_accept (fun () ->
        let beacon = Mesh_router.beacon router in
        match User.process_beacon legit beacon with
        | Error _ -> false
        | Ok (request, pending) -> begin
          match Mesh_router.handle_access_request router request with
          | Error _ -> false
          | Ok (confirm, _) ->
            ignore (User.process_confirm legit pending confirm);
            (* the adversary replays the captured (M.2) *)
            Result.is_ok (Mesh_router.handle_access_request router request)
        end)
  in
  (* 4. rogue beacons (self-signed certificate) *)
  let rogue_rng = Sim_rand.bytes_fn (Sim_rand.create ~seed:(seed + 99)) in
  let rogue =
    Mesh_router.create config ~router_id:77 ~gpk
      ~operator_public:(Network_operator.public_key (Deployment.operator d))
      ~rng:rogue_rng
  in
  let self_key = Peace_ec.Ecdsa.generate config.Config.curve rogue_rng in
  Mesh_router.install_cert rogue
    (Cert.issue config ~operator_key:self_key ~router_id:77
       ~public_key:(Mesh_router.public_key rogue)
       ~now:(Engine.now world.engine));
  Mesh_router.update_lists rogue
    (Network_operator.current_crl (Deployment.operator d))
    (Network_operator.current_url (Deployment.operator d));
  let rogue_accepted =
    count_accept (fun () ->
        let beacon = Mesh_router.beacon rogue in
        Result.is_ok (User.process_beacon legit beacon))
  in
  (* 5. sanity: legitimate traffic *)
  let legit_accepted =
    count_accept (fun () ->
        Result.is_ok (Deployment.authenticate d ~user:legit ~router ()))
  in
  {
    am_outsider_accepted = outsider_accepted;
    am_outsider_attempts = n;
    am_revoked_accepted = revoked_accepted;
    am_revoked_attempts = n;
    am_replay_accepted = replay_accepted;
    am_replay_attempts = n;
    am_rogue_beacons_accepted = rogue_accepted;
    am_rogue_beacon_attempts = n;
    am_legit_accepted = legit_accepted;
    am_legit_attempts = n;
  }

(* ------------------------------------------------------------------ *)
(* Multi-hop uplink relaying                                           *)
(* ------------------------------------------------------------------ *)

type multihop_result = {
  mh_near_successes : int;
  mh_near_attempts : int;
  mh_far_successes : int;
  mh_far_attempts : int;
  mh_peer_handshakes : int;
  mh_frames_out_of_range : int;
}

let tag_peer_hello = 4
let tag_peer_response = 5
let tag_peer_confirm = 6
let tag_relay_forward = 7
let tag_relay_reply = 8

let multihop_auth ?(seed = 42) ~n_near ~n_far ~duration_ms () =
  let world = make_world ~seed () in
  let config = world.config in
  let group_id = 1 in
  ignore (Deployment.add_group world.deployment ~group_id ~size:(n_near + n_far));
  let router = Deployment.add_router world.deployment ~router_id:0 in
  let node = make_router_node ~addr:0 router in
  let gpk = Deployment.gpk world.deployment in
  let peer_handshakes = ref 0 in
  (* router: full-cell downlink, and it accepts requests relayed by anyone *)
  Net.register world.net node.rn_addr ~pos:(0.0, 0.0) ~tx_range:2000.0
    (fun payload ->
      match parse_envelope payload with
      | Some (tag, sender, req, body) when tag = tag_access_request -> begin
        match Messages.access_request_of_bytes config gpk body with
        | Some request -> begin
          match Mesh_router.handle_access_request router request with
          | Ok (confirm, _session) ->
            Net.send world.net ~src:0 ~dst:sender
              (envelope ~req ~tag:tag_access_confirm ~sender:0
                 (Messages.access_confirm_to_bytes config confirm))
          | Error e ->
            tally world ("router.rejected." ^ Protocol_error.to_string e)
        end
        | None -> ()
      end
      | _ -> ());
  let user_tx = 350.0 in
  (* near users: within direct uplink range; they also act as relays *)
  let near_nodes =
    List.init n_near (fun i ->
        let user = add_member world ~group_id (Printf.sprintf "near-%d" i) in
        let addr = 1000 + i in
        let angle = 6.28 *. float_of_int i /. float_of_int (Stdlib.max 1 n_near) in
        let pos = (250.0 *. cos angle, 250.0 *. sin angle) in
        (* relay state: the peer session and who to reply to *)
        let responder_state = ref None in
        let relay_return = ref None in
        let pending = ref None in
        let want = ref true in
        Net.register world.net addr ~pos ~tx_range:user_tx (fun payload ->
            match parse_envelope payload with
            | Some (tag, sender, _req, body) when tag = tag_beacon -> begin
              if !want && !pending = None then begin
                match Messages.beacon_of_bytes config body with
                | None -> ()
                | Some beacon -> begin
                  match User.process_beacon user beacon with
                  | Ok (request, p) ->
                    pending := Some p;
                    tally world "near.attempt";
                    Net.send world.net ~src:addr ~dst:sender
                      (envelope ~tag:tag_access_request ~sender:addr
                         (Messages.access_request_to_bytes config gpk request))
                  | Error _ -> ()
                end
              end
            end
            | Some (tag, _sender, _req, body) when tag = tag_access_confirm -> begin
              (* not ours: a relayed confirm travelling back to a peer *)
              let relay () =
                match !relay_return with
                | Some (peer_addr, session) ->
                  Net.send world.net ~src:addr ~dst:peer_addr
                    (envelope ~tag:tag_relay_reply ~sender:addr
                       (Relay.wrap_reply session body))
                | None -> ()
              in
              match (!pending, Messages.access_confirm_of_bytes config body) with
              | Some p, Some confirm -> begin
                match User.process_confirm user p confirm with
                | Ok _ ->
                  pending := None;
                  want := false;
                  tally world "near.success"
                | Error Protocol_error.Unknown_session -> relay ()
                | Error _ -> pending := None
              end
              | _ -> relay ()
            end
            | Some (tag, sender, _req, body) when tag = tag_peer_hello -> begin
              (* §IV-C responder side *)
              match Messages.peer_hello_of_bytes config gpk body with
              | None -> ()
              | Some hello -> begin
                match User.process_peer_hello user hello with
                | Ok (response, pr) ->
                  responder_state := Some (sender, pr);
                  Net.send world.net ~src:addr ~dst:sender
                    (envelope ~tag:tag_peer_response ~sender:addr
                       (Messages.peer_response_to_bytes config gpk response))
                | Error e ->
                  tally world
                    ("relay.hello_rejected." ^ Protocol_error.to_string e)
              end
            end
            | Some (tag, sender, _req, body) when tag = tag_peer_confirm -> begin
              match !responder_state with
              | Some (peer_addr, pr) when peer_addr = sender -> begin
                match Messages.peer_confirm_of_bytes config body with
                | None -> ()
                | Some confirm -> begin
                  match User.process_peer_confirm user pr confirm with
                  | Ok session ->
                    incr peer_handshakes;
                    relay_return := Some (sender, session)
                  | Error e ->
                    tally world
                      ("relay.confirm_rejected." ^ Protocol_error.to_string e)
                end
              end
              | _ -> ()
            end
            | Some (tag, sender, _req, body) when tag = tag_relay_forward -> begin
              (* forward the inner payload to the requested destination *)
              match !relay_return with
              | Some (peer_addr, session) when peer_addr = sender -> begin
                match Relay.unwrap session body with
                | Some (_dst, inner) ->
                  Net.send world.net ~src:addr ~dst:0 inner
                | None -> tally world "relay.bad_forward"
              end
              | _ -> ()
            end
            | _ -> ());
        (user, addr, pos))
  in
  (* far users: hear beacons, cannot reach the router; relay via a near peer *)
  ignore
    (List.init n_far (fun i ->
         let user = add_member world ~group_id (Printf.sprintf "far-%d" i) in
         let addr = 2000 + i in
         (* placed just outside their nearest near-user's orbit *)
         let _, _, (nx, ny) = List.nth near_nodes (i mod List.length near_nodes) in
         let scale = 1.0 +. (200.0 /. Float.max 1.0 (sqrt ((nx *. nx) +. (ny *. ny)))) in
         let pos = (nx *. scale, ny *. scale) in
         let peer_pending = ref None in
         let peer_session = ref None in
         let router_pending = ref None in
         let want = ref true in
         let latest_beacon = ref None in
         let try_relay_auth () =
           match (!peer_session, !latest_beacon) with
           | Some (relay_addr, session), Some beacon when !want && !router_pending = None
             -> begin
             match User.process_beacon user beacon with
             | Ok (request, p) ->
               router_pending := Some p;
               tally world "far.attempt";
               let m2 =
                 envelope ~tag:tag_access_request ~sender:addr
                   (Messages.access_request_to_bytes config gpk request)
               in
               Net.send world.net ~src:addr ~dst:relay_addr
                 (envelope ~tag:tag_relay_forward ~sender:addr
                    (Relay.wrap session ~dst:"router-0" m2))
             | Error _ -> ()
           end
           | _ -> ()
         in
         (* the router's (M.3), whether relayed back or heard directly *)
         let on_confirm p confirm_bytes =
           match Messages.access_confirm_of_bytes config confirm_bytes with
           | None -> ()
           | Some confirm -> begin
             let outcome = User.process_confirm user p confirm in
             if answers_pending outcome then begin
               router_pending := None;
               match outcome with
               | Ok _ ->
                 want := false;
                 tally world "far.success"
               | Error e ->
                 tally world
                   ("far.confirm_rejected." ^ Protocol_error.to_string e)
             end
           end
         in
         Net.register world.net addr ~pos ~tx_range:user_tx (fun payload ->
             match parse_envelope payload with
             | Some (tag, _sender, _req, body) when tag = tag_beacon -> begin
               match Messages.beacon_of_bytes config body with
               | None -> ()
               | Some beacon ->
                 latest_beacon := Some beacon;
                 if !peer_session = None && !peer_pending = None && !want then begin
                   (* start the §IV-C handshake with whoever hears us *)
                   match User.peer_hello user ~g:beacon.Messages.g () with
                   | Ok (hello, pi) ->
                     peer_pending := Some pi;
                     Net.broadcast world.net ~src:addr ~range:user_tx
                       (envelope ~tag:tag_peer_hello ~sender:addr
                          (Messages.peer_hello_to_bytes config gpk hello))
                   | Error _ -> ()
                 end
                 else try_relay_auth ()
             end
             | Some (tag, sender, _req, body) when tag = tag_peer_response -> begin
               match (!peer_pending, Messages.peer_response_of_bytes config gpk body) with
               | Some pi, Some response -> begin
                 match User.process_peer_response user pi response with
                 | Ok (confirm, session) ->
                   peer_pending := None;
                   peer_session := Some (sender, session);
                   Net.send world.net ~src:addr ~dst:sender
                     (envelope ~tag:tag_peer_confirm ~sender:addr
                        (Messages.peer_confirm_to_bytes config confirm));
                   try_relay_auth ()
                 | Error Protocol_error.Unknown_session -> ()
                 | Error _ -> peer_pending := None
               end
               | _ -> ()
             end
             | Some (tag, sender, _req, body) when tag = tag_relay_reply -> begin
               match (!peer_session, !router_pending) with
               | Some (relay_addr, session), Some p when relay_addr = sender ->
                 Option.iter (on_confirm p) (Relay.unwrap_reply session body)
               | _ -> ()
             end
             | Some (tag, _sender, _req, body) when tag = tag_access_confirm ->
               (* downlink is one hop (§III-A): the router's (M.3) reaches
                  the far user directly even though the uplink was relayed *)
               Option.iter (fun p -> on_confirm p body) !router_pending
             | _ -> ());
         ()));
  broadcast_beacons world ~period:500 ~range:2000.0 ~duration_ms [ node ];
  refresh_lists world ~duration_ms;
  Engine.run ~until:(Engine.now world.engine + duration_ms) world.engine;
  {
    mh_near_successes = count world "near.success";
    mh_near_attempts = count world "near.attempt";
    mh_far_successes = count world "far.success";
    mh_far_attempts = count world "far.attempt";
    mh_peer_handshakes = !peer_handshakes;
    mh_frames_out_of_range = Net.frames_out_of_range world.net;
  }

(* ------------------------------------------------------------------ *)
(* Roaming / handoff                                                   *)
(* ------------------------------------------------------------------ *)

type roaming_result = {
  ro_handoffs : int;
  ro_handoff_failures : int;
  ro_handoff_mean_ms : float;
  ro_moves : int;
  ro_sessions_per_user : float;
}

let roaming ?(seed = 42) ~n_routers ~n_users
    ~duration_ms ~move_period_ms () =
  let world = make_world ~seed () in
  let group_id = 1 in
  ignore (Deployment.add_group world.deployment ~group_id ~size:n_users);
  let area = 2000.0 and range = 560.0 in
  let routers =
    List.init n_routers (fun i ->
        let router = Deployment.add_router world.deployment ~router_id:i in
        let node = make_router_node ~addr:i router in
        Net.register world.net node.rn_addr
          ~pos:(grid_position ~n:n_routers ~area i)
          (router_endpoint world node ~url_size:0 ~under_attack:false);
        node)
  in
  let moves = ref 0 in
  for i = 0 to n_users - 1 do
    let node =
      fresh_user_node
        ~un:(add_member world ~group_id (Printf.sprintf "roamer-%d" i))
        ~un_addr:(10_000 + i)
    in
    (* a user wants access from the start and again after every move: the
       next beacon starts the handoff, and beacons from other overlapping
       cells cause no ping-pong *)
    node.un_want_auth <- true;
    node.un_attempt_started <- Engine.now world.engine;
    let on_beacon sender body =
      Option.iter
        (fun beacon ->
          node.un_attempt_started <- Engine.now world.engine;
          tally world "roam.handoff_started";
          sign_request world node beacon (function
            | Ok frame -> Net.send world.net ~src:node.un_addr ~dst:sender frame
            | Error _ -> tally world "roam.handoff_failed"))
        (beacon_for world node body)
    in
    let on_confirm = function
      | Ok _ ->
        node.un_want_auth <- false;
        tally world "roam.handoff_done";
        observe world "roam.handoff_ms"
          (Engine.now world.engine - node.un_attempt_started)
      | Error _ -> tally world "roam.handoff_failed"
    in
    Net.register world.net node.un_addr ~pos:(random_pos world area)
      (user_endpoint world node ~on_beacon ~on_confirm);
    (* random-waypoint teleports *)
    let rec move () =
      Engine.schedule world.engine
        ~delay:(move_period_ms + Sim_rand.int world.rand 1000)
        (fun () ->
          if Engine.now world.engine <= 1_000_000 + duration_ms then begin
            Net.move world.net node.un_addr (random_pos world area);
            incr moves;
            node.un_want_auth <- true;
            move ()
          end)
    in
    move ()
  done;
  broadcast_beacons world ~period:400 ~range ~duration_ms routers;
  refresh_lists world ~duration_ms;
  Engine.run ~until:(Engine.now world.engine + duration_ms) world.engine;
  let handoffs = count world "roam.handoff_done" in
  {
    ro_handoffs = handoffs;
    ro_handoff_failures = count world "roam.handoff_failed";
    ro_handoff_mean_ms = read world "roam.handoff_ms";
    ro_moves = !moves;
    ro_sessions_per_user = float_of_int handoffs /. float_of_int n_users;
  }
