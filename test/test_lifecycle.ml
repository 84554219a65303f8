(* Extended lifecycle features: epoch rotation (URL compaction), adaptive
   DoS defence, and multi-epoch accountability. *)

open Peace_core

let clock () = Clock.manual ~start:1_000_000 ()

let make () =
  let c = clock () in
  let config = Config.tiny_test ~clock:c () in
  (config, c, Deployment.create ~seed:"lifecycle-seed" config)

let ident uid groups =
  Identity.make ~uid ~name:uid ~national_id:uid
    (List.map (fun g -> { Identity.group_id = g; description = "member" }) groups)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "protocol error: %s" (Protocol_error.to_string e)

let ok_str = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

(* --- epoch rotation --- *)

let test_rotation_compacts_url () =
  let _config, _c, d = make () in
  ignore (Deployment.add_group d ~group_id:1 ~size:6);
  let router = Deployment.add_router d ~router_id:1 in
  let good = ok_str (Deployment.add_user d (ident "good" [ 1 ])) in
  let bad1 = ok_str (Deployment.add_user d (ident "bad1" [ 1 ])) in
  let bad2 = ok_str (Deployment.add_user d (ident "bad2" [ 1 ])) in
  ok_str (Deployment.revoke_user d ~uid:"bad1" ~group_id:1);
  ok_str (Deployment.revoke_user d ~uid:"bad2" ~group_id:1);
  Alcotest.(check int) "URL grew to 2"
    2 (Url.size (Network_operator.current_url (Deployment.operator d)));
  Alcotest.(check int) "epoch 0" 0 (Network_operator.epoch (Deployment.operator d));
  Deployment.rotate_epoch d;
  Alcotest.(check int) "epoch 1" 1 (Network_operator.epoch (Deployment.operator d));
  Alcotest.(check int) "URL compacted to 0"
    0 (Url.size (Network_operator.current_url (Deployment.operator d)));
  (* the good member continues transparently with her reissued key *)
  ignore (ok (Deployment.authenticate d ~user:good ~router ()));
  (* revoked members stay locked out even though the URL is empty *)
  (match Deployment.authenticate d ~user:bad1 ~router () with
  | Error (Protocol_error.Invalid_group_signature | Protocol_error.No_group_key) -> ()
  | Ok _ -> Alcotest.fail "revoked member survived rotation"
  | Error e -> Alcotest.failf "unexpected: %s" (Protocol_error.to_string e));
  (* bad2's OLD key (pre-rotation) also fails against the new gpk *)
  ignore bad2

let test_rotation_preserves_audit () =
  let _config, _c, d = make () in
  ignore (Deployment.add_group d ~group_id:1 ~size:4);
  let router = Deployment.add_router d ~router_id:1 in
  let user = ok_str (Deployment.add_user d (ident "carol" [ 1 ])) in
  Deployment.rotate_epoch d;
  let session, _ = ok (Deployment.authenticate d ~user ~router ()) in
  (* sessions signed under the new epoch still trace to the member *)
  match Deployment.trace_session d router ~session_id:(Session.id session) with
  | Some r ->
    Alcotest.(check (option string)) "traces to carol" (Some "carol")
      r.Law_authority.traced_uid
  | None -> Alcotest.fail "trace failed after rotation"

let test_rotation_frees_capacity () =
  let _config, _c, d = make () in
  let gm = Deployment.add_group d ~group_id:1 ~size:3 in
  ignore (ok_str (Deployment.add_user d (ident "a" [ 1 ])));
  Alcotest.(check int) "2 unassigned before" 2 (Group_manager.available_keys gm);
  Deployment.rotate_epoch d;
  (* unassigned shares are reissued and stay available for new members *)
  Alcotest.(check int) "2 unassigned after" 2 (Group_manager.available_keys gm);
  let newbie = ok_str (Deployment.add_user d (ident "b" [ 1 ])) in
  let router = Deployment.add_router d ~router_id:9 in
  ignore (ok (Deployment.authenticate d ~user:newbie ~router ()))

let test_old_signature_rejected_after_rotation () =
  let _config, _c, d = make () in
  ignore (Deployment.add_group d ~group_id:1 ~size:4);
  let router = Deployment.add_router d ~router_id:1 in
  let user = ok_str (Deployment.add_user d (ident "u" [ 1 ])) in
  let beacon = Mesh_router.beacon router in
  let request, _pending = ok (User.process_beacon user beacon) in
  Deployment.rotate_epoch d;
  (* an M.2 built under the old epoch no longer verifies *)
  let beacon2 = Mesh_router.beacon router in
  let fresh_request, _ = ok (User.process_beacon user beacon2) in
  (match Mesh_router.handle_access_request router request with
  | Error (Protocol_error.Invalid_group_signature | Protocol_error.Unknown_session) -> ()
  | Ok _ -> Alcotest.fail "stale-epoch request accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Protocol_error.to_string e));
  match Mesh_router.handle_access_request router fresh_request with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh request rejected: %s" (Protocol_error.to_string e)

(* --- accounting / billing --- *)

let test_accounting () =
  let _config, _c, d = make () in
  ignore (Deployment.add_group d ~group_id:1 ~size:4);
  ignore (Deployment.add_group d ~group_id:2 ~size:4);
  let router = Deployment.add_router d ~router_id:1 in
  let a = ok_str (Deployment.add_user d (ident "a" [ 1 ])) in
  let b = ok_str (Deployment.add_user d (ident "b" [ 2 ])) in
  let meter = Accounting.create_meter () in
  let run user bytes =
    let su, sr = ok (Deployment.authenticate d ~user ~router ()) in
    ignore sr;
    let sid = Session.id su in
    Accounting.record_up meter ~session_id:sid ~bytes;
    Accounting.record_down meter ~session_id:sid ~bytes:(2 * bytes);
    ignore (Accounting.close_session meter ~session_id:sid ~duration_ms:1000);
    sid
  in
  ignore (run a 100);
  ignore (run a 50);
  ignore (run b 10);
  Alcotest.(check int) "all sessions closed" 0 (Accounting.open_sessions meter);
  Alcotest.(check int) "three usage records" 3
    (List.length (Accounting.usages meter));
  let lines = Accounting.invoice (Deployment.operator d) ~router meter in
  (match lines with
  | [ g1; g2 ] ->
    Alcotest.(check int) "group 1 first" 1 g1.Accounting.il_group_id;
    Alcotest.(check int) "group 1 sessions" 2 g1.Accounting.il_sessions;
    Alcotest.(check int) "group 1 bytes" 450 g1.Accounting.il_bytes;
    Alcotest.(check int) "group 2 sessions" 1 g2.Accounting.il_sessions;
    Alcotest.(check int) "group 2 bytes" 30 g2.Accounting.il_bytes
  | _ -> Alcotest.failf "expected 2 invoice lines, got %d" (List.length lines));
  (* an unmetered foreign session never appears: nothing to bill *)
  let meter2 = Accounting.create_meter () in
  Accounting.record_up meter2 ~session_id:"ghost" ~bytes:999;
  ignore (Accounting.close_session meter2 ~session_id:"ghost" ~duration_ms:1);
  Alcotest.(check int) "ghost session unbillable" 0
    (List.length (Accounting.invoice (Deployment.operator d) ~router meter2))

(* billing must be impossible to inflate from the metering side: unknown
   or repeated closes produce nothing, and only a close makes a session
   billable at all *)
let test_accounting_edges () =
  let meter = Accounting.create_meter () in
  Alcotest.(check bool) "close of unknown session refused" false
    (Accounting.close_session meter ~session_id:"nope" ~duration_ms:5);
  Alcotest.(check int) "no usage invented" 0
    (List.length (Accounting.usages meter));
  (* a zero-byte session: the explicit open makes its duration billable *)
  Accounting.open_session meter ~session_id:"idle";
  Alcotest.(check int) "open counted" 1 (Accounting.open_sessions meter);
  Alcotest.(check bool) "zero-byte close accepted" true
    (Accounting.close_session meter ~session_id:"idle" ~duration_ms:250);
  (match Accounting.usages meter with
  | [ u ] ->
    Alcotest.(check int) "zero bytes up" 0 u.Accounting.u_bytes_up;
    Alcotest.(check int) "zero bytes down" 0 u.Accounting.u_bytes_down;
    Alcotest.(check int) "duration billed" 250 u.Accounting.u_duration_ms
  | l -> Alcotest.failf "expected 1 usage, got %d" (List.length l));
  Alcotest.(check bool) "double close refused" false
    (Accounting.close_session meter ~session_id:"idle" ~duration_ms:999);
  Alcotest.(check int) "double close duplicates nothing" 1
    (List.length (Accounting.usages meter));
  (* traffic opens implicitly, but an unclosed session never bills *)
  Accounting.record_up meter ~session_id:"live" ~bytes:10;
  Alcotest.(check int) "implicit open counted" 1
    (Accounting.open_sessions meter);
  Alcotest.(check int) "unclosed session excluded from usages" 1
    (List.length (Accounting.usages meter));
  Accounting.open_session meter ~session_id:"live";
  Alcotest.(check int) "re-open of a live session is idempotent" 1
    (Accounting.open_sessions meter)

let test_roaming_scenario () =
  let r =
    Peace_sim.Scenario.roaming ~seed:3 ~n_routers:4 ~n_users:6
      ~duration_ms:60_000 ~move_period_ms:15_000 ()
  in
  Alcotest.(check bool) "users moved" true (r.Peace_sim.Scenario.ro_moves > 0);
  Alcotest.(check bool) "handoffs completed" true
    (r.Peace_sim.Scenario.ro_handoffs >= r.Peace_sim.Scenario.ro_moves / 2);
  Alcotest.(check int) "no handoff failures" 0
    r.Peace_sim.Scenario.ro_handoff_failures;
  Alcotest.(check bool) "handoff latency measured" true
    (r.Peace_sim.Scenario.ro_handoff_mean_ms > 0.0)

let suite =
  [
    ( "epoch-rotation",
      [
        Alcotest.test_case "compacts URL, keeps revocation" `Quick
          test_rotation_compacts_url;
        Alcotest.test_case "preserves audit chain" `Quick
          test_rotation_preserves_audit;
        Alcotest.test_case "frees unassigned capacity" `Quick
          test_rotation_frees_capacity;
        Alcotest.test_case "stale-epoch signatures rejected" `Quick
          test_old_signature_rejected_after_rotation;
      ] );
    ( "accounting",
      [
        Alcotest.test_case "group-level invoices" `Quick test_accounting;
        Alcotest.test_case "metering edge cases" `Quick test_accounting_edges;
        Alcotest.test_case "roaming handoffs" `Slow test_roaming_scenario;
      ] );
  ]

let () = Alcotest.run "peace-lifecycle" suite
