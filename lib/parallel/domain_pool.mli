(** A fixed pool of [Domain.spawn] workers fed from a {!Bounded_queue} of
    jobs, with submit/await futures.

    The pool is the multicore execution substrate for the verifier farm
    ({!Batch_verify}): spawn once, submit many jobs, await their futures,
    shut down. Shutdown is graceful — already-queued jobs finish, then the
    workers exit and are joined, so no domain ever leaks. *)

type t

type 'a future

type worker_stats = {
  jobs : int;  (** jobs completed by this worker *)
  busy_ns : int64;  (** wall-clock nanoseconds spent inside jobs *)
}

val create : domains:int -> unit -> t
(** Spawns [domains] worker domains pulling from a job queue of
    [4 * domains] slots; submitters block when the queue is full.
    @raise Invalid_argument if [domains < 1]. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueues a job; blocks if the job queue is at capacity.
    @raise Invalid_argument if the pool has been shut down. *)

val await : 'a future -> 'a
(** Blocks until the job completes. Re-raises (with its backtrace) any
    exception the job raised. *)

val shutdown : t -> unit
(** Closes the job queue, waits for queued jobs to drain, and joins every
    worker domain. Idempotent; subsequent {!submit}s fail. *)

val stats : t -> worker_stats array
(** One entry per worker, index-stable across calls. Only exact once the
    pool is shut down (workers update their own slot as they run). *)

val total : worker_stats array -> worker_stats
(** Aggregate over all workers: summed jobs and busy time.

    Live farm health is also published through {!Peace_obs.Registry}: the
    ["pool.queue_depth"] and ["pool.workers_busy"] gauges and the
    ["pool.jobs_total"] counter. *)

val run : domains:int -> (t -> 'a) -> 'a
(** [run ~domains f] brackets [f] between {!create} and {!shutdown}; the
    pool is shut down even if [f] raises. *)
