(* Membership dynamics: issue, use, revoke, evict, extend (paper §III-B
   "Membership Maintenance" and §IV-D dynamic revocation).

   Run with: dune exec examples/revocation_lifecycle.exe *)

open Peace_core

let ok = function
  | Ok v -> v
  | Error e -> failwith (Protocol_error.to_string e)

let () =
  Printf.printf "== PEACE membership lifecycle ==\n\n";
  (* the audit ledger, kept in memory: the only record of each session *)
  let ledger = ref [] in
  Peace_obs.Audit.install
    (Some (Peace_obs.Audit.create ~sink:(fun line -> ledger := line :: !ledger) ()));
  let config = Config.tiny_test () in
  let d = Deployment.create ~seed:"lifecycle" config in
  let gm = Deployment.add_group d ~group_id:10 ~size:2 in
  let router = Deployment.add_router d ~router_id:1 in

  let enroll uid =
    match
      Deployment.add_user d
        (Identity.make ~uid ~name:uid ~national_id:uid
           [ { Identity.group_id = 10; description = "subscriber" } ])
    with
    | Ok u -> u
    | Error reason -> failwith reason
  in
  let mallory = enroll "mallory" in
  let honest = enroll "honest" in
  Printf.printf "issued keys to mallory and honest (group 10 now exhausted: %d left)\n"
    (Group_manager.available_keys gm);

  (* both authenticate fine *)
  ignore (ok (Deployment.authenticate d ~user:mallory ~router ()));
  let latest, _ = ok (Deployment.authenticate d ~user:honest ~router ()) in
  Printf.printf "both members authenticated\n\n";

  (* mallory misbehaves: the latest session on the ledger is audited, its
     group identified, and the operator revokes mallory's key *)
  let accepted =
    Option.get (Mesh_router.accepted_sessions (Deployment.gpk d) (List.rev !ledger))
  in
  let msg, gsig = Option.get (accepted (Session.id latest)) in
  (match Network_operator.audit (Deployment.operator d) ~msg gsig with
  | Some finding ->
    Printf.printf "audit of the suspicious session: user group %d, key index %d\n"
      finding.Network_operator.found_group_id finding.Network_operator.found_index
  | None -> failwith "audit failed");
  (match Deployment.revoke_user d ~uid:"mallory" ~group_id:10 with
  | Ok () -> ()
  | Error e -> failwith e);
  Printf.printf "mallory's token published in the URL (size now %d)\n\n"
    (Url.size (Network_operator.current_url (Deployment.operator d)));

  (* eviction is verifier-local: every router checks Eq. 3 on each request *)
  (match Deployment.authenticate d ~user:mallory ~router () with
  | Error Protocol_error.User_revoked -> Printf.printf "mallory evicted: access request rejected as revoked\n"
  | Ok _ -> failwith "revoked user accepted!"
  | Error e -> failwith (Protocol_error.to_string e));
  ignore (ok (Deployment.authenticate d ~user:honest ~router ()));
  Printf.printf "honest member unaffected\n\n";

  (* membership addition: the operator extends the group with fresh keys *)
  let registration =
    Network_operator.extend_group (Deployment.operator d) ~group_id:10 ~size:4
  in
  (match
     Group_manager.load_registration gm
       ~operator_public:(Network_operator.public_key (Deployment.operator d))
       registration
   with
  | Ok _receipt -> ()
  | Error e -> failwith e);
  Ttp.store (Deployment.ttp d) registration.Network_operator.ttp_shares;
  Printf.printf "group extended: %d fresh keys available\n"
    (Group_manager.available_keys gm);
  let newcomer = enroll "newcomer" in
  ignore (ok (Deployment.authenticate d ~user:newcomer ~router ()));
  Printf.printf "newcomer enrolled and authenticated\n\n";
  Printf.printf "lifecycle complete: issue -> use -> audit -> revoke -> evict -> extend.\n"
