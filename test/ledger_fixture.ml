(* An in-memory audit ledger for the tests that read the record of an
   accepted session. *)

module Audit = Peace_obs.Audit

(* installed for the length of [f]; [f] gets a function that returns every
   line appended so far, oldest first *)
let with_ledger f =
  let lines = ref [] in
  let ledger = Audit.create ~sink:(fun line -> lines := line :: !lines) () in
  let installed = Audit.installed () in
  Audit.install (Some ledger);
  Fun.protect
    ~finally:(fun () -> Audit.install installed)
    (fun () -> f (fun () -> List.rev !lines))

(* the attributes of every access_accept record, oldest first, from a
   ledger whose chain verifies *)
let accepts lines =
  match Audit.verify ~require_seal:false lines with
  | Error b -> Alcotest.failf "ledger does not verify: %s" b.Audit.br_reason
  | Ok report ->
    List.filter_map
      (fun (kind, attrs) -> if kind = "access_accept" then Some attrs else None)
      report.Audit.vr_walked
