open Peace_core

(* live engine telemetry, scrapeable via `peace serve` while a long
   simulation runs: events executed, the simulated clock, and the event
   queue backlog *)
let c_events = Peace_obs.Registry.counter "sim.engine.events_total"
let g_sim_now = Peace_obs.Registry.gauge "sim.engine.now_ms"
let g_pending = Peace_obs.Registry.gauge "sim.engine.pending_events"

type t = {
  queue : (unit -> unit) Event_queue.t;
  clock : Clock.t;
  mutable running : bool;
}

let create ?(start = 1_000_000) () =
  {
    queue = Event_queue.create ();
    clock = Clock.manual ~start ();
    running = false;
  }

let clock t = t.clock
let now t = Clock.now t.clock

let schedule_at t ~time handler =
  if time < now t then invalid_arg "Engine.schedule_at: time in the past";
  Event_queue.push t.queue ~time handler

let schedule t ~delay handler =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(now t + delay) handler

let schedule_every t ~period ?until handler =
  if period <= 0 then invalid_arg "Engine.schedule_every: period";
  let rec tick () =
    (match until with
    | Some horizon when now t > horizon -> ()
    | _ ->
      handler ();
      schedule t ~delay:period tick)
  in
  schedule t ~delay:period tick

let run ?until t =
  if t.running then invalid_arg "Engine.run: reentrant run";
  t.running <- true;
  let horizon = match until with None -> max_int | Some h -> h in
  let rec loop () =
    match Event_queue.peek_time t.queue with
    | None -> ()
    | Some time when time > horizon -> ()
    | Some _ -> (
      match Event_queue.pop t.queue with
      | None -> ()
      | Some (time, handler) ->
        Clock.set t.clock time;
        Peace_obs.Registry.Counter.incr c_events;
        Peace_obs.Registry.Gauge.set g_sim_now time;
        Peace_obs.Registry.Gauge.set g_pending (Event_queue.size t.queue);
        handler ();
        loop ())
  in
  Fun.protect ~finally:(fun () -> t.running <- false) loop;
  (* land the clock on the horizon so subsequent scheduling is sane *)
  match until with
  | Some h when h > now t -> Clock.set t.clock h
  | _ -> ()

let pending t = Event_queue.size t.queue

let attach_sampler t ~period ?until sampler =
  (* the sampler reads simulated, not wall, time from here on: a 1-hour
     simulated run yields a 1-hour timeline however fast it executes *)
  Peace_obs.Timeseries.set_clock sampler (fun () -> Clock.now t.clock);
  Peace_obs.Timeseries.sample sampler;
  schedule_every t ~period ?until (fun () ->
      Peace_obs.Timeseries.sample sampler)
