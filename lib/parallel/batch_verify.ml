open Peace_groupsig

type job = { msg : string; gsig : Group_sig.signature }

let default_chunk ~domains n =
  let target_items = 4 * domains in
  Stdlib.max 1 ((n + target_items - 1) / target_items)

let check_chunk = function
  | Some c when c < 1 -> invalid_arg "Batch_verify: chunk must be >= 1"
  | Some c -> c
  | None -> 0 (* resolved against the batch size later *)

(* fan a batch out over the pool in [chunk]-sized slices; each future
   returns its slice's results, so reassembly in submission order is just
   concatenation and no array is shared between domains *)
let fan_out pool ~chunk verify_one jobs =
  let arr = Array.of_list jobs in
  let n = Array.length arr in
  let chunk =
    if chunk > 0 then chunk else default_chunk ~domains:(Domain_pool.size pool) n
  in
  let rec slices lo =
    if lo >= n then []
    else begin
      let hi = Stdlib.min n (lo + chunk) in
      let fut =
        Domain_pool.submit pool (fun () ->
            List.init (hi - lo) (fun k -> verify_one arr.(lo + k)))
      in
      fut :: slices hi
    end
  in
  (* submit everything first, then await in order; the queue's capacity
     throttles submission if the batch outruns the workers *)
  List.concat_map Domain_pool.await (slices 0)

let one_scan gpk url j = Group_sig.verify gpk ~url ~msg:j.msg j.gsig

let verify_batch_with_stats ?chunk ?(url = []) ~domains gpk jobs =
  let chunk = check_chunk chunk in
  if domains = 1 then (List.map (one_scan gpk url) jobs, [||])
  else begin
    if domains < 1 then invalid_arg "Batch_verify: domains must be >= 1";
    let pool = Domain_pool.create ~domains () in
    let results =
      Fun.protect
        ~finally:(fun () -> Domain_pool.shutdown pool)
        (fun () -> fan_out pool ~chunk (one_scan gpk url) jobs)
    in
    (* stats are only exact after shutdown, which Fun.protect guarantees
       has happened by now *)
    (results, Domain_pool.stats pool)
  end

let verify_batch ?chunk ?url ~domains gpk jobs =
  fst (verify_batch_with_stats ?chunk ?url ~domains gpk jobs)
