(* Verifier-farm tests: bounded-queue semantics under contention, domain
   pool lifecycle (futures, exceptions, stats, clean shutdown), batch
   verification order/equality against the sequential path on mixed
   valid/forged/revoked batches. *)

open Peace_bigint
open Peace_pairing
open Peace_groupsig
open Peace_parallel

let tiny = Lazy.force Params.tiny

let test_rng seed =
  let state = ref seed in
  fun n ->
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      state := (!state * 2685821657736338717) + 1442695040888963407;
      Bytes.set b i (Char.chr ((!state lsr 32) land 0xff))
    done;
    Bytes.unsafe_to_string b

let vres = Alcotest.testable Group_sig.pp_verify_result Group_sig.equal_verify_result

(* --- Bounded_queue --- *)

let test_queue_fifo () =
  let q = Bounded_queue.create ~capacity:4 in
  Alcotest.(check int) "capacity" 4 (Bounded_queue.capacity q);
  List.iter (Bounded_queue.push q) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Bounded_queue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "try_pop 3" (Some 3) (Bounded_queue.try_pop q);
  Alcotest.(check (option int)) "empty try_pop" None (Bounded_queue.try_pop q);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Bounded_queue.create: capacity must be >= 1") (fun () ->
      ignore (Bounded_queue.create ~capacity:0))

let test_queue_capacity_and_close () =
  let q = Bounded_queue.create ~capacity:2 in
  Alcotest.(check bool) "try_push ok" true (Bounded_queue.try_push q 1);
  Alcotest.(check bool) "try_push ok" true (Bounded_queue.try_push q 2);
  Alcotest.(check bool) "try_push full" false (Bounded_queue.try_push q 3);
  Alcotest.(check bool) "not closed" false (Bounded_queue.is_closed q);
  Bounded_queue.close q;
  Bounded_queue.close q (* idempotent *);
  Alcotest.(check bool) "closed" true (Bounded_queue.is_closed q);
  Alcotest.check_raises "push after close" Bounded_queue.Closed (fun () ->
      Bounded_queue.push q 4);
  Alcotest.check_raises "try_push after close" Bounded_queue.Closed (fun () ->
      ignore (Bounded_queue.try_push q 4));
  (* queued items remain poppable after close, then None *)
  Alcotest.(check (option int)) "drain 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "drain 2" (Some 2) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "drained" None (Bounded_queue.pop q)

let test_queue_backpressure () =
  (* a producer domain pushes far more items than the queue holds; the
     consumer observes every item in order and the queue never exceeds its
     capacity — so the producer must have blocked rather than grown it *)
  let capacity = 3 and total = 200 in
  let q = Bounded_queue.create ~capacity in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to total do
          Bounded_queue.push q i
        done;
        Bounded_queue.close q)
  in
  let seen = ref 0 and in_order = ref true and max_len = ref 0 in
  let rec drain () =
    match Bounded_queue.pop q with
    | None -> ()
    | Some i ->
      incr seen;
      if i <> !seen then in_order := false;
      max_len := Stdlib.max !max_len (Bounded_queue.length q);
      drain ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check int) "all items" total !seen;
  Alcotest.(check bool) "in order" true !in_order;
  Alcotest.(check bool)
    (Printf.sprintf "bounded (max observed %d <= %d)" !max_len capacity)
    true (!max_len <= capacity)

let test_queue_mpmc () =
  (* several producers and consumers hammer one queue; every pushed value
     is popped exactly once *)
  let q = Bounded_queue.create ~capacity:4 in
  let per_producer = 50 and producers = 2 and consumers = 2 in
  let produce base () =
    for i = 0 to per_producer - 1 do
      Bounded_queue.push q (base + i)
    done
  in
  let consume () =
    let rec go acc = match Bounded_queue.pop q with
      | None -> acc
      | Some v -> go (v :: acc)
    in
    go []
  in
  let prods = List.init producers (fun p -> Domain.spawn (produce (1000 * p))) in
  let cons = List.init consumers (fun _ -> Domain.spawn consume) in
  List.iter Domain.join prods;
  Bounded_queue.close q;
  let got = List.concat_map Domain.join cons in
  let expected =
    List.concat
      (List.init producers (fun p -> List.init per_producer (fun i -> (1000 * p) + i)))
  in
  Alcotest.(check (list int)) "every item exactly once"
    (List.sort compare expected) (List.sort compare got)

(* --- Domain_pool --- *)

let test_pool_submit_await () =
  let pool = Domain_pool.create ~domains:3 () in
  Alcotest.(check int) "size" 3 (Domain_pool.size pool);
  let futures = List.init 20 (fun i -> Domain_pool.submit pool (fun () -> i * i)) in
  let results = List.map Domain_pool.await futures in
  Alcotest.(check (list int)) "results in submission order"
    (List.init 20 (fun i -> i * i))
    results;
  Domain_pool.shutdown pool;
  let stats = Domain_pool.stats pool in
  let total = Array.fold_left (fun acc s -> acc + s.Domain_pool.jobs) 0 stats in
  Alcotest.(check int) "stats account for every job" 20 total;
  Alcotest.(check int) "one stats slot per worker" 3 (Array.length stats)

let test_pool_exceptions () =
  Domain_pool.run ~domains:2 (fun pool ->
      let ok = Domain_pool.submit pool (fun () -> "fine") in
      let bad = Domain_pool.submit pool (fun () -> failwith "job blew up") in
      Alcotest.(check string) "good job unaffected" "fine" (Domain_pool.await ok);
      Alcotest.check_raises "exception re-raised by await"
        (Failure "job blew up") (fun () -> ignore (Domain_pool.await bad));
      (* the worker that ran the failing job is still alive *)
      let after = Domain_pool.submit pool (fun () -> 7) in
      Alcotest.(check int) "pool still serves" 7 (Domain_pool.await after))

let test_pool_shutdown () =
  let pool = Domain_pool.create ~domains:2 () in
  (* more jobs than the 8 queue slots, so submission blocks on the way;
     queued-but-unstarted jobs are drained before the workers exit *)
  let futures = List.init 20 (fun i -> Domain_pool.submit pool (fun () -> i)) in
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool (* idempotent *);
  Alcotest.(check (list int)) "queued jobs completed before exit"
    (List.init 20 Fun.id)
    (List.map Domain_pool.await futures);
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Domain_pool.submit: pool is shut down") (fun () ->
      ignore (Domain_pool.submit pool (fun () -> ())));
  Alcotest.check_raises "zero domains rejected"
    (Invalid_argument "Domain_pool.create: domains must be >= 1") (fun () ->
      ignore (Domain_pool.create ~domains:0 ()))

let test_pool_obs () =
  let module R = Peace_obs.Registry in
  let jobs_before = R.Counter.value (R.counter "pool.jobs_total") in
  Domain_pool.run ~domains:2 (fun pool ->
      let futures = List.init 8 (fun i -> Domain_pool.submit pool (fun () -> i * i)) in
      Alcotest.(check (list int)) "results" (List.init 8 (fun i -> i * i))
        (List.map Domain_pool.await futures));
  Alcotest.(check int) "jobs_total counts every job" (jobs_before + 8)
    (R.Counter.value (R.counter "pool.jobs_total"));
  (* after a clean shutdown nothing is queued and nobody is busy *)
  Alcotest.(check int) "queue_depth back to 0" 0
    (R.Gauge.value (R.gauge "pool.queue_depth"));
  Alcotest.(check int) "workers_busy back to 0" 0
    (R.Gauge.value (R.gauge "pool.workers_busy"))

let test_worker_stats_total () =
  let pool = Domain_pool.create ~domains:3 () in
  let futures = List.init 12 (fun i -> Domain_pool.submit pool (fun () -> i)) in
  List.iter (fun f -> ignore (Domain_pool.await f)) futures;
  Domain_pool.shutdown pool;
  let stats = Domain_pool.stats pool in
  Alcotest.(check int) "one slot per worker" 3 (Array.length stats);
  let tot = Domain_pool.total stats in
  Alcotest.(check int) "every job accounted" 12 tot.Domain_pool.jobs;
  Alcotest.(check bool) "busy time non-negative" true
    (Int64.compare tot.Domain_pool.busy_ns 0L >= 0)

(* --- Batch_verify --- *)

let issuer = Group_sig.setup tiny (test_rng 1)
let gpk = issuer.Group_sig.gpk
let alice = Group_sig.issue issuer ~grp:(Bigint.of_int 1001) (test_rng 2)
let mallory = Group_sig.issue issuer ~grp:(Bigint.of_int 1001) (test_rng 3)
let url = [ Group_sig.token_of_gsk mallory ]

(* a mixed batch: valid, revoked and forged signatures interleaved *)
let mixed_jobs =
  let rng = test_rng 4 in
  List.init 9 (fun i ->
      let msg = Printf.sprintf "transcript %d" i in
      let gsig =
        match i mod 3 with
        | 0 -> Group_sig.sign gpk alice ~rng ~msg
        | 1 -> Group_sig.sign gpk mallory ~rng ~msg (* revoked *)
        | _ ->
          let s = Group_sig.sign gpk alice ~rng ~msg in
          { s with Group_sig.c = Modular.add s.Group_sig.c Bigint.one tiny.Params.q }
      in
      { Batch_verify.msg; gsig })

let sequential_expected =
  List.map
    (fun j -> Group_sig.verify gpk ~url ~msg:j.Batch_verify.msg j.Batch_verify.gsig)
    mixed_jobs

let test_batch_matches_sequential () =
  (* the mix exercises every verdict *)
  Alcotest.check vres "has valid" Group_sig.Valid (List.nth sequential_expected 0);
  Alcotest.check vres "has revoked" Group_sig.Revoked (List.nth sequential_expected 1);
  Alcotest.check vres "has forged" Group_sig.Invalid_proof
    (List.nth sequential_expected 2);
  (* domains:1 is the sequential path *)
  Alcotest.(check (list vres)) "domains:1 identical" sequential_expected
    (Batch_verify.verify_batch ~domains:1 ~url gpk mixed_jobs);
  (* parallel execution preserves order and verdicts, at any chunking *)
  List.iter
    (fun (domains, chunk) ->
      Alcotest.(check (list vres))
        (Printf.sprintf "domains:%d chunk:%s identical" domains
           (match chunk with Some c -> string_of_int c | None -> "auto"))
        sequential_expected
        (Batch_verify.verify_batch ?chunk ~domains ~url gpk mixed_jobs))
    [ (2, None); (3, Some 1); (3, Some 4); (2, Some 100) ];
  Alcotest.(check (list vres)) "empty batch"
    []
    (Batch_verify.verify_batch ~domains:2 ~url gpk []);
  Alcotest.check_raises "domains:0 rejected"
    (Invalid_argument "Batch_verify: domains must be >= 1") (fun () ->
      ignore (Batch_verify.verify_batch ~domains:0 ~url gpk mixed_jobs))

let test_batch_back_to_back () =
  (* consecutive batches each fan out over a farm of their own: every
     batch matches the sequential path, and its stats count only its own
     chunks, none carried over from the batch before *)
  let chunks =
    let n = List.length mixed_jobs in
    let chunk = Batch_verify.default_chunk ~domains:2 n in
    (n + chunk - 1) / chunk
  in
  List.iter
    (fun label ->
      let results, stats =
        Batch_verify.verify_batch_with_stats ~domains:2 ~url gpk mixed_jobs
      in
      Alcotest.(check (list vres)) label sequential_expected results;
      Alcotest.(check int) (label ^ ": this batch's chunks only") chunks
        (Domain_pool.total stats).Domain_pool.jobs)
    [ "batch 1"; "batch 2"; "batch 3" ]

let test_batch_with_stats () =
  let results, stats =
    Batch_verify.verify_batch_with_stats ~domains:2 ~url gpk mixed_jobs
  in
  Alcotest.(check (list vres)) "results match sequential" sequential_expected results;
  Alcotest.(check int) "one slot per worker" 2 (Array.length stats);
  Alcotest.(check int) "chunks all accounted"
    (List.length mixed_jobs |> fun n ->
     let chunk = Batch_verify.default_chunk ~domains:2 n in
     (n + chunk - 1) / chunk)
    (Domain_pool.total stats).Domain_pool.jobs;
  (* the sequential path has no pool, hence no stats *)
  let seq_results, seq_stats =
    Batch_verify.verify_batch_with_stats ~domains:1 ~url gpk mixed_jobs
  in
  Alcotest.(check (list vres)) "domains:1 identical" sequential_expected seq_results;
  Alcotest.(check int) "domains:1 has no farm stats" 0 (Array.length seq_stats)

let suite =
  [
    ( "bounded-queue",
      [
        Alcotest.test_case "fifo" `Quick test_queue_fifo;
        Alcotest.test_case "capacity and close" `Quick test_queue_capacity_and_close;
        Alcotest.test_case "producer backpressure" `Quick test_queue_backpressure;
        Alcotest.test_case "mpmc contention" `Quick test_queue_mpmc;
      ] );
    ( "domain-pool",
      [
        Alcotest.test_case "submit/await" `Quick test_pool_submit_await;
        Alcotest.test_case "exception propagation" `Quick test_pool_exceptions;
        Alcotest.test_case "graceful shutdown" `Quick test_pool_shutdown;
        Alcotest.test_case "registry gauges" `Quick test_pool_obs;
        Alcotest.test_case "worker stats total" `Quick test_worker_stats_total;
      ] );
    ( "batch-verify",
      [
        Alcotest.test_case "matches sequential" `Quick test_batch_matches_sequential;
        Alcotest.test_case "back-to-back batches" `Quick test_batch_back_to_back;
        Alcotest.test_case "farm stats" `Quick test_batch_with_stats;
      ] );
  ]

let () = Alcotest.run "peace-parallel" suite
