(* Benchmark results as data.

   Experiments call [add] next to each principal printf; when the harness
   was started with --json the accumulated metrics are written as one
   schema-versioned JSON document that `peace bench-report` can diff
   against an earlier run. Metric names fold their parameters in
   ("e3.verify_scan.url100_ms"), so a name is unique across the run and
   the report can match old to new by name alone. *)

type better = Lower | Higher

(* name, unit, value, better — newest first *)
let records : (string * string * float * better) list ref = ref []

let add ?(better = Lower) ~unit_ name value =
  if List.exists (fun (n, _, _, _) -> n = name) !records then
    invalid_arg ("Bench_record.add: duplicate metric " ^ name);
  records := (name, unit_, value, better) :: !records

let count () = List.length !records

let write_file path ~rev ~date =
  let rows =
    List.rev_map
      (fun (name, unit_, value, better) ->
        (name, unit_, value, match better with Lower -> "lower" | Higher -> "higher"))
      !records
  in
  let oc = open_out path in
  output_string oc (Peace_obs.Obs_json.results_document ~rev ~date rows);
  close_out oc
