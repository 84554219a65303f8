(* The sophisticated-privacy walk-through (paper §III-C and §IV-D).

   One citizen, several social roles. Each network session is signed under
   the role she chooses. The example shows exactly who can learn what:

   - eavesdropper / other users / group managers: nothing, not even
     linkage between her own sessions;
   - the network operator (audit): only the user GROUP behind a session —
     one nonessential attribute;
   - the law authority WITH the group manager's cooperation: her identity.

   Run with: dune exec examples/privacy_audit.exe *)

open Peace_core

let ok = function
  | Ok v -> v
  | Error e -> failwith (Protocol_error.to_string e)

let () =
  Printf.printf "== PEACE privacy and accountability walk-through ==\n\n";
  (* the audit ledger, kept in memory: the only record of each session *)
  let ledger = ref [] in
  Peace_obs.Audit.install
    (Some (Peace_obs.Audit.create ~sink:(fun line -> ledger := line :: !ledger) ()));
  let config = Config.tiny_test () in
  let d = Deployment.create ~seed:"privacy" config in
  let _company = Deployment.add_group d ~group_id:1 ~size:4 in
  let _university = Deployment.add_group d ~group_id:2 ~size:4 in
  let _golf_club = Deployment.add_group d ~group_id:3 ~size:4 in
  let router = Deployment.add_router d ~router_id:1 in

  let carol =
    match
      Deployment.add_user d
        (Identity.make ~uid:"carol" ~name:"Carol Mesh" ~national_id:"555-12-3456"
           [
             { Identity.group_id = 1; description = "engineer of Company X" };
             { Identity.group_id = 2; description = "student of University Z" };
             { Identity.group_id = 3; description = "member of Golf Club V" };
           ])
    with
    | Ok u -> u
    | Error reason -> failwith reason
  in
  Printf.printf "carol holds one group private key per role: groups %s\n\n"
    (String.concat ", " (List.map string_of_int (User.enrolled_groups carol)));

  (* three sessions in three different roles *)
  let s_work, _ = ok (Deployment.authenticate d ~user:carol ~router ~group_id:1 ()) in
  let s_study, _ = ok (Deployment.authenticate d ~user:carol ~router ~group_id:2 ()) in
  let s_golf, _ = ok (Deployment.authenticate d ~user:carol ~router ~group_id:3 ()) in
  Printf.printf "three sessions established, identifiers:\n";
  List.iter
    (fun (label, s) ->
      Printf.printf "  %-10s %s...\n" label (String.sub (Session.id s) 0 20))
    [ ("work", s_work); ("study", s_study); ("golf", s_golf) ];
  Printf.printf
    "\nno identifier, key or signature component repeats across sessions —\n\
     an eavesdropper cannot link them to each other, let alone to carol.\n\n";

  (* the operator audits each session on the ledger, latest first: group
     only *)
  Printf.printf "operator audits (reveal the ROLE, not the person):\n";
  let ledger = List.rev !ledger in
  let accepted = Option.get (Mesh_router.accepted_sessions (Deployment.gpk d) ledger) in
  List.iter
    (fun s ->
      let msg, gsig = Option.get (accepted (Session.id s)) in
      match Law_authority.audit_only (Deployment.operator d) ~msg gsig with
      | Some finding ->
        Printf.printf "  session %s... -> %s\n"
          (String.sub (Session.id s) 0 12)
          (Option.value ~default:"?" finding.Law_authority.traced_nonessential)
      | None -> Printf.printf "  audit failed\n")
    [ s_golf; s_study; s_work ];

  (* full trace of ONE session requires the group manager too *)
  Printf.printf "\nlaw authority traces the golf session with the club's cooperation:\n";
  (match Deployment.trace_session d ~ledger ~session_id:(Session.id s_golf) with
  | Some result ->
    Printf.printf "  group %d + GM record -> uid %s\n"
      result.Law_authority.traced_group_id
      (Option.value ~default:"?" result.Law_authority.traced_uid);
    Printf.printf
      "  (the club learns nothing about her WORK sessions; the employer\n\
      \   learns nothing about her golf sessions)\n"
  | None -> failwith "trace failed");

  (* a group manager alone cannot audit anything: it lacks the A values *)
  Printf.printf
    "\na group manager alone cannot run the audit: the revocation tokens\n\
     (the A components) exist only at the operator, and the GM share (grp, x)\n\
     cannot reconstruct them — by the q-SDH assumption.\n"
