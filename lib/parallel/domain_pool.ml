type worker_stats = { jobs : int; busy_ns : int64 }

(* live farm health, visible through Peace_obs (e.g. `peace stats`): depth
   of the shared job queue, workers currently inside a job, jobs completed
   process-wide *)
let g_queue_depth = Peace_obs.Registry.gauge "pool.queue_depth"
let g_workers_busy = Peace_obs.Registry.gauge "pool.workers_busy"
let c_jobs_total = Peace_obs.Registry.counter "pool.jobs_total"

type 'a state = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable st : 'a state;
}

type t = {
  queue : (unit -> unit) Bounded_queue.t;
  workers : unit Domain.t array;
  stats : worker_stats array;  (* slot i written only by worker i *)
  lock : Mutex.t;
  mutable stopped : bool;
}

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* jobs are wrapped so they cannot raise (the wrapper catches into the
   future), but be defensive: a worker must survive anything *)
let rec worker_loop queue stats i =
  match Bounded_queue.pop queue with
  | None -> ()
  | Some job ->
    Peace_obs.Registry.Gauge.decr g_queue_depth;
    Peace_obs.Registry.Gauge.incr g_workers_busy;
    let t0 = now_ns () in
    (* the span runs on this worker's domain, so a profiler shards it per
       domain and a trace recorder tags it with this domain's tid *)
    (try Peace_obs.Trace.with_span "pool.job" job with _ -> ());
    let dt = Int64.sub (now_ns ()) t0 in
    let s = stats.(i) in
    stats.(i) <- { jobs = s.jobs + 1; busy_ns = Int64.add s.busy_ns dt };
    Peace_obs.Registry.Gauge.decr g_workers_busy;
    Peace_obs.Registry.Counter.incr c_jobs_total;
    worker_loop queue stats i

let create ~domains () =
  if domains < 1 then invalid_arg "Domain_pool.create: domains must be >= 1";
  let queue = Bounded_queue.create ~capacity:(4 * domains) in
  let stats = Array.make domains { jobs = 0; busy_ns = 0L } in
  let workers =
    Array.init domains (fun i -> Domain.spawn (fun () -> worker_loop queue stats i))
  in
  { queue; workers; stats; lock = Mutex.create (); stopped = false }

let size t = Array.length t.workers

let submit t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); st = Pending } in
  let job () =
    let result =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.fm;
    fut.st <- result;
    Condition.broadcast fut.fc;
    Mutex.unlock fut.fm
  in
  (try
     Bounded_queue.push t.queue job;
     Peace_obs.Registry.Gauge.incr g_queue_depth
   with Bounded_queue.Closed ->
     invalid_arg "Domain_pool.submit: pool is shut down");
  fut

let await fut =
  Mutex.lock fut.fm;
  let rec wait () =
    match fut.st with
    | Pending ->
      Condition.wait fut.fc fut.fm;
      wait ()
    | Done v ->
      Mutex.unlock fut.fm;
      v
    | Failed (e, bt) ->
      Mutex.unlock fut.fm;
      Printexc.raise_with_backtrace e bt
  in
  wait ()

let shutdown t =
  Mutex.lock t.lock;
  let first = not t.stopped in
  t.stopped <- true;
  Mutex.unlock t.lock;
  if first then begin
    Bounded_queue.close t.queue;
    Array.iter Domain.join t.workers
  end

let stats t = Array.copy t.stats

let total stats =
  Array.fold_left
    (fun acc s ->
      { jobs = acc.jobs + s.jobs; busy_ns = Int64.add acc.busy_ns s.busy_ns })
    { jobs = 0; busy_ns = 0L } stats

let run ~domains f =
  let pool = create ~domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
