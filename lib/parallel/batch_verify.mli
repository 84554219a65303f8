(** Parallel batched group-signature verification — the verifier farm.

    A batch of signatures (a burst of queued access requests, say) is
    split into chunks, the chunks are distributed over a {!Domain_pool},
    and the results come back in submission order. The URL token list is
    shared read-only across the whole batch. [peace bench-verify] and
    bench E11 drive it.

    [Group_sig.verify] is referentially transparent (its only writes are
    the benign pairing op-counters), which is what makes fan-out safe.

    At [domains:1] both entry points bypass the pool entirely and map
    [Group_sig.verify] over the batch in order — the exact sequential
    path, bit for bit. *)

open Peace_groupsig

type job = { msg : string; gsig : Group_sig.signature }

val default_chunk : domains:int -> int -> int
(** [default_chunk ~domains n] is the chunk size used when [?chunk] is
    omitted: [n] split into roughly [4 * domains] chunks (at least 1 job
    each), so the pool stays load-balanced without drowning in tiny
    jobs. *)

val verify_batch :
  ?chunk:int ->
  ?url:Group_sig.revocation_token list ->
  domains:int ->
  Group_sig.gpk ->
  job list ->
  Group_sig.verify_result list
(** Batched {!Group_sig.verify} (proof check + URL revocation scan).
    Results are in submission order. Spawns a pool of [domains] workers
    for the call when [domains > 1]; [chunk] caps the number of jobs per
    work item.
    @raise Invalid_argument if [domains < 1] or [chunk < 1]. *)

val verify_batch_with_stats :
  ?chunk:int ->
  ?url:Group_sig.revocation_token list ->
  domains:int ->
  Group_sig.gpk ->
  job list ->
  Group_sig.verify_result list * Domain_pool.worker_stats array
(** Like {!verify_batch}, but also returns the pool's per-worker stats
    (read after shutdown, so they are exact). At [domains:1] the stats
    array is empty — there is no pool on the sequential path. *)
