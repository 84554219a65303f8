(* Quickstart: the smallest complete PEACE deployment.

   One network operator, one user group ("Company X"), one mesh router, one
   user — then a full anonymous user-router handshake and an encrypted data
   exchange over the established session.

   Run with: dune exec examples/quickstart.exe *)

open Peace_core

let () =
  Printf.printf "== PEACE quickstart ==\n\n";

  (* 1. Offline setup (paper §IV-A): operator, TTP, one user group. *)
  let config = Config.tiny_test () in
  let deployment = Deployment.create ~seed:"quickstart" config in
  let _company_x = Deployment.add_group deployment ~group_id:1 ~size:8 in
  Printf.printf "setup: operator holds %d revocation tokens; TTP holds %d blinded shares\n"
    (Network_operator.grt_size (Deployment.operator deployment))
    (Ttp.share_count (Deployment.ttp deployment));

  (* 2. A mesh router joins and is certified by the operator. *)
  let router = Deployment.add_router deployment ~router_id:1 in
  Printf.printf "router 1 certified by the operator\n";

  (* 3. A user enrolls through her employer. The group manager hands her
        (grp, x); the TTP hands her the blinded A; she assembles the group
        private key herself — no single party ever saw all of it. *)
  let identity =
    Identity.make ~uid:"alice" ~name:"Alice Doe" ~national_id:"123-45-6789"
      [ { Identity.group_id = 1; description = "engineer of Company X" } ]
  in
  let alice =
    match Deployment.add_user deployment identity with
    | Ok user -> user
    | Error reason -> failwith reason
  in
  Printf.printf "alice enrolled in groups %s\n"
    (String.concat ", " (List.map string_of_int (User.enrolled_groups alice)));

  (* 4. The three-message anonymous handshake (M.1 -> M.2 -> M.3). *)
  let beacon = Mesh_router.beacon router in
  Printf.printf "\nM.1 beacon from router %d (%d bytes on the wire)\n"
    beacon.Messages.router_id
    (String.length (Messages.beacon_to_bytes config beacon));
  let request, pending =
    match User.process_beacon alice beacon with
    | Ok v -> v
    | Error e -> failwith (Protocol_error.to_string e)
  in
  Printf.printf "M.2 access request (%d bytes, carries the group signature)\n"
    (String.length
       (Messages.access_request_to_bytes config (Deployment.gpk deployment) request));
  let confirm, router_session =
    match Mesh_router.handle_access_request router request with
    | Ok v -> v
    | Error e -> failwith (Protocol_error.to_string e)
  in
  Printf.printf "M.3 confirm (%d bytes)\n"
    (String.length (Messages.access_confirm_to_bytes config confirm));
  let alice_session =
    match User.process_confirm alice pending confirm with
    | Ok s -> s
    | Error e -> failwith (Protocol_error.to_string e)
  in
  assert (Session.matches alice_session router_session);
  Printf.printf "\nsession established: %s...\n"
    (String.sub (Session.id alice_session) 0 16);
  Printf.printf "the router knows a LEGITIMATE user connected — not which one\n";

  (* 5. Data flows under the session key with MAC-based authentication. *)
  let packet = Session.seal alice_session "GET /news HTTP/1.1" in
  (match Session.open_ router_session packet with
  | Some plaintext -> Printf.printf "\nrouter decrypted uplink: %S\n" plaintext
  | None -> failwith "session broken");
  let reply = Session.seal router_session "HTTP/1.1 200 OK" in
  (match Session.open_ alice_session reply with
  | Some plaintext -> Printf.printf "alice decrypted downlink: %S\n" plaintext
  | None -> failwith "session broken");

  (* 6. Accountability: the operator can attribute the logged session to
        Company X — and only to Company X. *)
  let entry = List.hd (Mesh_router.access_log router) in
  (match
     Law_authority.audit_only (Deployment.operator deployment)
       ~msg:entry.Mesh_router.le_transcript
       (Option.get (Mesh_router.logged_signature router entry))
   with
  | Some finding ->
    Printf.printf
      "\naudit: session attributable to user group %d (\"Company X\"); the \
       operator learns nothing else\n"
      finding.Law_authority.traced_group_id
  | None -> failwith "audit failed");
  Printf.printf "\nquickstart complete.\n"
