(* PEACE framework tests: setup key-split invariants, user-router and
   user-user handshakes, revocation and eviction, certificates and beacons,
   puzzles, sessions, audit and tracing, and the full lifecycle. *)

open Peace_bigint
open Peace_pairing
open Peace_groupsig
open Peace_core

let clock () = Clock.manual ~start:1_000_000 ()

let make_deployment ?(seed = "test-seed") ?clock:(c = clock ()) () =
  let config = Config.tiny_test ~clock:c () in
  (config, c, Deployment.create ~seed config)

let identity_alice =
  Identity.make ~uid:"alice" ~name:"Alice Doe" ~national_id:"123-45-6789"
    [
      { Identity.group_id = 1; description = "engineer of Company X" };
      { Identity.group_id = 2; description = "member of Golf Club V" };
    ]

let identity_bob =
  Identity.make ~uid:"bob" ~name:"Bob Roe" ~national_id:"987-65-4321"
    [ { Identity.group_id = 1; description = "engineer of Company X" } ]

let perr = Alcotest.testable Protocol_error.pp Protocol_error.equal

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label (Protocol_error.to_string e)

let ok_or_fail_str label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label e

(* --- setup / key split --- *)

let test_setup_key_split () =
  let _config, _clock, d = make_deployment () in
  let _gm1 = Deployment.add_group d ~group_id:1 ~size:4 in
  let gm2 = Deployment.add_group d ~group_id:2 ~size:2 in
  Alcotest.(check int) "groups registered" 2
    (Network_operator.group_count (Deployment.operator d));
  Alcotest.(check int) "grt has all keys" 6
    (Network_operator.grt_size (Deployment.operator d));
  Alcotest.(check int) "ttp holds all blinded shares" 6
    (Ttp.share_count (Deployment.ttp d));
  Alcotest.(check int) "gm2 unassigned" 2 (Group_manager.available_keys gm2);
  let alice = ok_or_fail_str "add alice" (Deployment.add_user d identity_alice) in
  Alcotest.(check (list int)) "alice enrolled in both groups" [ 1; 2 ]
    (User.enrolled_groups alice);
  Alcotest.(check int) "ttp got receipts" 2 (Ttp.receipt_count (Deployment.ttp d));
  Alcotest.(check int) "gm2 one key left" 1 (Group_manager.available_keys gm2);
  (* exhaustion *)
  let id_many =
    List.init 3 (fun i ->
        Identity.make
          ~uid:(Printf.sprintf "u%d" i)
          ~name:"N" ~national_id:"x"
          [ { Identity.group_id = 2; description = "golfer" } ])
  in
  let results = List.map (Deployment.add_user d) id_many in
  let failures = List.filter Result.is_error results in
  Alcotest.(check int) "group 2 exhausts after 1 more" 2 (List.length failures)

let test_blinding_involution () =
  let x = Bigint.of_string "0x123456789abcdef" in
  let data = "some group element encoding bytes" in
  Alcotest.(check string) "unblind inverts blind" data
    (Blinding.apply ~x (Blinding.apply ~x data));
  Alcotest.(check bool) "blinding changes data" true
    (Blinding.apply ~x data <> data);
  (* different x yields different pad *)
  Alcotest.(check bool) "pad depends on x" true
    (Blinding.apply ~x data <> Blinding.apply ~x:(Bigint.succ x) data)

(* --- user-router protocol --- *)

let test_user_router_handshake () =
  let _config, _clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "add bob" (Deployment.add_user d identity_bob) in
  let user_session, router_session =
    ok_or_fail "authenticate" (Deployment.authenticate d ~user:bob ~router ())
  in
  Alcotest.(check bool) "sessions match" true
    (Session.matches user_session router_session);
  Alcotest.(check int) "router logged the session" 1
    (List.length (Mesh_router.access_log router));
  (* data flows both ways with replay protection *)
  let data = Session.seal user_session "uplink packet" in
  (match Session.open_ router_session data with
  | Some p -> Alcotest.(check string) "uplink" "uplink packet" p
  | None -> Alcotest.fail "router could not open");
  Alcotest.(check bool) "replay rejected" true
    (Session.open_ router_session data = None);
  let down = Session.seal router_session "downlink packet" in
  (match Session.open_ user_session down with
  | Some p -> Alcotest.(check string) "downlink" "downlink packet" p
  | None -> Alcotest.fail "user could not open");
  (* a second handshake gives an unlinkable (different) session id *)
  let user_session2, _ =
    ok_or_fail "second auth" (Deployment.authenticate d ~user:bob ~router ())
  in
  Alcotest.(check bool) "fresh session id" false
    (Session.id user_session = Session.id user_session2)

let test_replay_and_staleness () =
  let _config, c, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "add bob" (Deployment.add_user d identity_bob) in
  let beacon = Mesh_router.beacon router in
  let request, _pending =
    ok_or_fail "process beacon" (User.process_beacon bob beacon)
  in
  (* stale request: past the window *)
  Clock.advance c 60_000;
  Alcotest.(check (result reject perr)) "stale rejected"
    (Error Protocol_error.Stale_timestamp)
    (Result.map (fun _ -> ()) (Mesh_router.handle_access_request router request));
  (* stale beacon equally rejected by a user *)
  Alcotest.(check (result reject perr)) "stale beacon rejected"
    (Error Protocol_error.Stale_timestamp)
    (Result.map (fun _ -> ()) (User.process_beacon bob beacon))

let test_rogue_router_rejected () =
  let config, _clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let _router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "add bob" (Deployment.add_user d identity_bob) in
  (* a rogue router with a self-signed certificate *)
  let rogue_rng = Peace_hash.Drbg.bytes_fn (Peace_hash.Drbg.create ~seed:"rogue" ()) in
  let rogue =
    Mesh_router.create config ~router_id:66 ~gpk:(Deployment.gpk d)
      ~operator_public:(Network_operator.public_key (Deployment.operator d))
      ~rng:rogue_rng
  in
  let self_key = Peace_ec.Ecdsa.generate config.Config.curve rogue_rng in
  let fake_cert =
    Cert.issue config ~operator_key:self_key ~router_id:66
      ~public_key:(Mesh_router.public_key rogue)
      ~now:(Clock.now config.Config.clock)
  in
  Mesh_router.install_cert rogue fake_cert;
  Mesh_router.update_lists rogue
    (Network_operator.current_crl (Deployment.operator d))
    (Network_operator.current_url (Deployment.operator d));
  let beacon = Mesh_router.beacon rogue in
  Alcotest.(check (result reject perr)) "phishing beacon rejected"
    (Error (Protocol_error.Bad_router_certificate Cert.Bad_signature))
    (Result.map (fun _ -> ()) (User.process_beacon bob beacon))

let test_revoked_router_rejected () =
  let _config, _clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "add bob" (Deployment.add_user d identity_bob) in
  Deployment.revoke_router d ~router_id:7;
  let beacon = Mesh_router.beacon router in
  Alcotest.(check (result reject perr)) "revoked router rejected"
    (Error Protocol_error.Router_revoked)
    (Result.map (fun _ -> ()) (User.process_beacon bob beacon))

let test_outsider_rejected () =
  let config, _clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  (* an outsider with a key from a DIFFERENT group master (own setup) *)
  let outsider_rng = Peace_hash.Drbg.bytes_fn (Peace_hash.Drbg.create ~seed:"outsider" ()) in
  let foreign_issuer = Group_sig.setup config.Config.pairing outsider_rng in
  let foreign_key = Group_sig.issue foreign_issuer ~grp:Bigint.one outsider_rng in
  let beacon = Mesh_router.beacon router in
  let params = config.Config.pairing in
  let q = params.Params.q in
  let r_j = Bigint.random_range outsider_rng Bigint.one q in
  let g_rj = G1.mul params r_j beacon.Messages.g in
  let ts2 = Clock.now config.Config.clock in
  let transcript = Messages.auth_transcript config g_rj beacon.Messages.g_rr ts2 in
  (* signature under the WRONG gpk still parses but cannot verify *)
  let gsig =
    Group_sig.sign foreign_issuer.Group_sig.gpk foreign_key ~rng:outsider_rng
      ~msg:transcript
  in
  let request =
    { Messages.g_rj; ar_g_rr = beacon.Messages.g_rr; ts2; gsig; puzzle_solution = None }
  in
  Alcotest.(check (result reject perr)) "outsider rejected"
    (Error Protocol_error.Invalid_group_signature)
    (Result.map (fun _ -> ()) (Mesh_router.handle_access_request router request))

let test_user_revocation_eviction () =
  let _config, _clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let _gm2 = Deployment.add_group d ~group_id:2 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "add bob" (Deployment.add_user d identity_bob) in
  let alice = ok_or_fail_str "add alice" (Deployment.add_user d identity_alice) in
  (* bob works before revocation *)
  ignore (ok_or_fail "pre-revocation" (Deployment.authenticate d ~user:bob ~router ()));
  ok_or_fail_str "revoke bob" (Deployment.revoke_user d ~uid:"bob" ~group_id:1);
  Alcotest.(check int) "URL carries one token" 1
    (Url.size (Network_operator.current_url (Deployment.operator d)));
  (* bob is now evicted *)
  Alcotest.(check (result reject perr)) "revoked user evicted"
    (Error Protocol_error.User_revoked)
    (Result.map (fun _ -> ()) (Deployment.authenticate d ~user:bob ~router ()));
  (* alice (same group, different key) is unaffected *)
  ignore
    (ok_or_fail "alice unaffected"
       (Deployment.authenticate d ~user:alice ~router ~group_id:1 ()))

let test_puzzles_under_attack () =
  let _config, _clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "add bob" (Deployment.add_user d identity_bob) in
  Mesh_router.set_under_attack router ~difficulty:4;
  Alcotest.(check bool) "router flags attack" true (Mesh_router.under_attack router);
  (* legitimate user still gets through, paying puzzle work *)
  ignore (ok_or_fail "auth with puzzle" (Deployment.authenticate d ~user:bob ~router ()));
  Alcotest.(check bool) "user paid puzzle work" true (User.puzzle_work_done bob > 0);
  (* a request without a solution is dropped cheaply *)
  let beacon = Mesh_router.beacon router in
  let request, _ = ok_or_fail "beacon" (User.process_beacon bob beacon) in
  let stripped = { request with Messages.puzzle_solution = None } in
  let before = Mesh_router.verifications_performed router in
  Alcotest.(check (result reject perr)) "missing solution rejected"
    (Error Protocol_error.Puzzle_required)
    (Result.map (fun _ -> ()) (Mesh_router.handle_access_request router stripped));
  let wrong = { request with Messages.puzzle_solution = Some "\x00\x00\x00\x00\x00\x00\x00\x09" } in
  (match Mesh_router.handle_access_request router wrong with
  | Error Protocol_error.Bad_puzzle_solution -> ()
  | Error Protocol_error.Unknown_session -> () (* depends on solution luck *)
  | Ok _ -> Alcotest.fail "bad solution accepted"
  | Error e -> Alcotest.failf "unexpected error %s" (Protocol_error.to_string e));
  Alcotest.(check int) "no expensive verification ran" before
    (Mesh_router.verifications_performed router);
  Alcotest.(check bool) "cheap rejections counted" true
    (Mesh_router.requests_rejected_cheaply router >= 2);
  Mesh_router.clear_under_attack router;
  ignore (ok_or_fail "auth after attack" (Deployment.authenticate d ~user:bob ~router ()))

(* --- user-user protocol --- *)

let test_user_user_handshake () =
  let _config, _clock, d = make_deployment () in
  let _gm1 = Deployment.add_group d ~group_id:1 ~size:4 in
  let _gm2 = Deployment.add_group d ~group_id:2 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let alice = ok_or_fail_str "alice" (Deployment.add_user d identity_alice) in
  let bob = ok_or_fail_str "bob" (Deployment.add_user d identity_bob) in
  let sa, sb =
    ok_or_fail "peer auth"
      (Deployment.peer_authenticate d ~initiator:alice ~responder:bob ~router ())
  in
  Alcotest.(check bool) "peer sessions match" true (Session.matches sa sb);
  let packet = Session.seal sa "relay me" in
  (match Session.open_ sb packet with
  | Some p -> Alcotest.(check string) "relayed" "relay me" p
  | None -> Alcotest.fail "peer could not open");
  (* alice can choose which role (group key) to use *)
  let sa2, _ =
    ok_or_fail "peer auth as golfer"
      (Deployment.peer_authenticate d ~initiator:alice ~responder:bob ~router
         ~initiator_group:2 ())
  in
  Alcotest.(check bool) "role-scoped session works" true
    (String.length (Session.id sa2) > 0)

let test_peer_revoked_rejected () =
  let _config, _clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let _gm2 = Deployment.add_group d ~group_id:2 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let alice = ok_or_fail_str "alice" (Deployment.add_user d identity_alice) in
  let bob = ok_or_fail_str "bob" (Deployment.add_user d identity_bob) in
  (* both users must hold a current URL: have them authenticate once *)
  ignore (ok_or_fail "alice auth" (Deployment.authenticate d ~user:alice ~router ~group_id:1 ()));
  ignore (ok_or_fail "bob auth" (Deployment.authenticate d ~user:bob ~router ()));
  ok_or_fail_str "revoke bob" (Deployment.revoke_user d ~uid:"bob" ~group_id:1);
  (* alice refreshes her URL view from a new beacon *)
  ignore (ok_or_fail "alice re-auth" (Deployment.authenticate d ~user:alice ~router ~group_id:1 ()));
  Alcotest.(check (result reject perr)) "revoked peer rejected by alice"
    (Error Protocol_error.User_revoked)
    (Result.map
       (fun _ -> ())
       (Deployment.peer_authenticate d ~initiator:bob ~responder:alice ~router ()))

(* --- audit & tracing --- *)

let test_audit_and_trace () =
  let _config, _clock, d = make_deployment () in
  let _gm1 = Deployment.add_group d ~group_id:1 ~size:4 in
  let _gm2 = Deployment.add_group d ~group_id:2 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let alice = ok_or_fail_str "alice" (Deployment.add_user d identity_alice) in
  let _bob = ok_or_fail_str "bob" (Deployment.add_user d identity_bob) in
  (* alice accesses the WMN as a golf-club member *)
  let user_session, _ =
    ok_or_fail "auth" (Deployment.authenticate d ~user:alice ~router ~group_id:2 ())
  in
  let sid = Session.id user_session in
  (* the operator's audit reveals the group only *)
  let entry = List.hd (Mesh_router.access_log router) in
  Alcotest.(check string) "log entry matches session" sid
    entry.Mesh_router.le_session_id;
  (* the log keeps the signature's wire bytes, not the decoded points *)
  Alcotest.(check int) "log keeps wire bytes"
    (Group_sig.signature_size (Deployment.gpk d))
    (String.length entry.Mesh_router.le_gsig_bytes);
  (match
     Law_authority.audit_only (Deployment.operator d)
       ~msg:entry.Mesh_router.le_transcript
       (Option.get (Mesh_router.logged_signature router entry))
   with
  | None -> Alcotest.fail "audit found nothing"
  | Some finding ->
    Alcotest.(check int) "audit reveals group 2" 2
      finding.Law_authority.traced_group_id;
    Alcotest.(check (option string)) "audit does NOT reveal uid" None
      finding.Law_authority.traced_uid);
  (* the full trace (with GM cooperation) reveals alice *)
  (match Deployment.trace_session d router ~session_id:sid with
  | None -> Alcotest.fail "trace found nothing"
  | Some result ->
    Alcotest.(check int) "trace group" 2 result.Law_authority.traced_group_id;
    Alcotest.(check (option string)) "trace uid" (Some "alice")
      result.Law_authority.traced_uid);
  (* an unknown session does not trace *)
  Alcotest.(check bool) "unknown session" true
    (Deployment.trace_session d router ~session_id:"nope" = None)

let test_audit_role_separation () =
  (* the same user audited under different roles yields different groups —
     the "sophisticated privacy" property *)
  let _config, _clock, d = make_deployment () in
  let _gm1 = Deployment.add_group d ~group_id:1 ~size:4 in
  let _gm2 = Deployment.add_group d ~group_id:2 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let alice = ok_or_fail_str "alice" (Deployment.add_user d identity_alice) in
  let s1, _ = ok_or_fail "as engineer" (Deployment.authenticate d ~user:alice ~router ~group_id:1 ()) in
  let s2, _ = ok_or_fail "as golfer" (Deployment.authenticate d ~user:alice ~router ~group_id:2 ()) in
  let find sid =
    match Deployment.trace_session d router ~session_id:sid with
    | Some r -> r.Law_authority.traced_group_id
    | None -> Alcotest.fail "trace failed"
  in
  Alcotest.(check int) "session 1 -> company" 1 (find (Session.id s1));
  Alcotest.(check int) "session 2 -> club" 2 (find (Session.id s2))

(* --- wire formats --- *)

let test_message_round_trips () =
  let config, _clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "bob" (Deployment.add_user d identity_bob) in
  let beacon = Mesh_router.beacon router in
  (match Messages.beacon_of_bytes config (Messages.beacon_to_bytes config beacon) with
  | Some b ->
    Alcotest.(check int) "beacon router id" 7 b.Messages.router_id;
    (* the reconstructed beacon is still acceptable to a user *)
    ignore (ok_or_fail "parsed beacon ok" (User.process_beacon bob b))
  | None -> Alcotest.fail "beacon round trip failed");
  let request, _ = ok_or_fail "request" (User.process_beacon bob beacon) in
  let gpk = Deployment.gpk d in
  (match
     Messages.access_request_of_bytes config gpk
       (Messages.access_request_to_bytes config gpk request)
   with
  | Some r ->
    (match Mesh_router.handle_access_request router r with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "parsed request rejected: %s" (Protocol_error.to_string e))
  | None -> Alcotest.fail "request round trip failed");
  (* malformed input *)
  Alcotest.(check bool) "garbage beacon" true
    (Messages.beacon_of_bytes config "garbage" = None);
  Alcotest.(check bool) "garbage request" true
    (Messages.access_request_of_bytes config gpk "garbage" = None);
  Alcotest.(check bool) "empty confirm" true
    (Messages.access_confirm_of_bytes config "" = None)

let test_certificate_lifecycle () =
  let config, c, d = make_deployment () in
  let _router = Deployment.add_router d ~router_id:3 in
  let no = Deployment.operator d in
  let cert = Network_operator.register_router no ~router_id:9 ~router_public:(Peace_ec.Curve.base config.Config.curve) in
  let npk = Network_operator.public_key no in
  Alcotest.(check bool) "fresh cert verifies" true
    (Cert.verify config ~operator_public:npk ~now:(Clock.now c) cert = Ok ());
  (* expiry *)
  Clock.advance c (config.Config.cert_lifetime_ms + 1);
  Alcotest.(check bool) "expired cert rejected" true
    (Cert.verify config ~operator_public:npk ~now:(Clock.now c) cert
    = Error Cert.Expired);
  (* serialisation *)
  (match Cert.of_bytes config (Cert.to_bytes config cert) with
  | Some cert' -> Alcotest.(check int) "cert round trip" 9 cert'.Cert.router_id
  | None -> Alcotest.fail "cert round trip failed");
  (* CRL staleness drives the paper's phishing-window bound *)
  let crl = Network_operator.current_crl no in
  Alcotest.(check bool) "crl now stale" true
    (Cert.crl_is_stale config crl ~now:(Clock.now c))

let test_session_counters () =
  let config, _clock, d = make_deployment () in
  ignore config;
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "bob" (Deployment.add_user d identity_bob) in
  let su, sr = ok_or_fail "auth" (Deployment.authenticate d ~user:bob ~router ()) in
  (* out-of-order delivery within the window is rejected (strict floor) *)
  let m1 = Session.seal su "one" in
  let m2 = Session.seal su "two" in
  Alcotest.(check bool) "m2 opens" true (Session.open_ sr m2 = Some "two");
  Alcotest.(check bool) "older m1 now rejected" true (Session.open_ sr m1 = None);
  (* tampered payload rejected *)
  let m3 = Session.seal su "three" in
  let tampered = Bytes.of_string m3 in
  let last = Bytes.length tampered - 1 in
  Bytes.set tampered last (Char.chr (Char.code (Bytes.get tampered last) lxor 1));
  Alcotest.(check bool) "tampered rejected" true
    (Session.open_ sr (Bytes.to_string tampered) = None)

let test_puzzle_module () =
  let rng = Peace_hash.Drbg.bytes_fn (Peace_hash.Drbg.create ~seed:"puzzle" ()) in
  let p = Puzzle.make ~rng ~difficulty:8 in
  (match Puzzle.solve p with
  | None -> Alcotest.fail "no solution"
  | Some s ->
    Alcotest.(check bool) "solution checks" true (Puzzle.check p s);
    Alcotest.(check bool) "work counted" true (Puzzle.solving_work p s >= 1));
  Alcotest.(check bool) "wrong solution fails" true
    (not (Puzzle.check p "12345678") || Puzzle.check p "12345678");
  (* difficulty 0 is trivially solvable by the first candidate *)
  let p0 = Puzzle.make ~rng ~difficulty:0 in
  Alcotest.(check bool) "difficulty 0" true (Puzzle.solve ~max_tries:1 p0 <> None);
  (* bounded search can fail *)
  let p_hard = Puzzle.make ~rng ~difficulty:30 in
  Alcotest.(check bool) "bounded search fails" true
    (Puzzle.solve ~max_tries:2 p_hard = None);
  (* round trip *)
  match Puzzle.of_bytes (Puzzle.to_bytes p) with
  | Some p' -> Alcotest.(check bool) "puzzle round trip" true (p' = p)
  | None -> Alcotest.fail "puzzle round trip failed"

let test_session_rekey () =
  let _config, _clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "bob" (Deployment.add_user d identity_bob) in
  let su, sr = ok_or_fail "auth" (Deployment.authenticate d ~user:bob ~router ()) in
  let before_rekey = Session.seal su "old epoch" in
  Alcotest.(check bool) "pre-ratchet traffic flows" true
    (Session.open_ sr before_rekey = Some "old epoch");
  (* both ends ratchet in lockstep *)
  Session.rekey su;
  Session.rekey sr;
  Alcotest.(check int) "generation bumped" 1 (Session.generation su);
  let after = Session.seal su "new epoch" in
  Alcotest.(check bool) "post-ratchet traffic flows" true
    (Session.open_ sr after = Some "new epoch");
  (* a message sealed before the ratchet no longer opens (old key gone) *)
  let stale = Session.seal su "will be orphaned" in
  Session.rekey su;
  Session.rekey sr;
  Alcotest.(check bool) "pre-ratchet message orphaned" true
    (Session.open_ sr stale = None);
  (* desynchronized generations cannot talk *)
  Session.rekey su;
  Alcotest.(check bool) "desync rejected" true
    (Session.open_ sr (Session.seal su "x") = None)

let test_session_adversity () =
  (* a hostile or fault-injected channel hands Session.open_ arbitrary
     bytes: every outcome must be None, never an exception *)
  let _config, _clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "bob" (Deployment.add_user d identity_bob) in
  let su, sr = ok_or_fail "auth" (Deployment.authenticate d ~user:bob ~router ()) in
  let sealed = Session.seal su "payload under fire" in
  (* every truncation of a valid frame *)
  for len = 0 to String.length sealed - 1 do
    match Session.open_ sr (String.sub sealed 0 len) with
    | None -> ()
    | Some _ -> Alcotest.failf "truncated frame (%d bytes) accepted" len
  done;
  (* a bit flip at every byte position *)
  for i = 0 to String.length sealed - 1 do
    let corrupted = Bytes.of_string sealed in
    Bytes.set corrupted i (Char.chr (Char.code sealed.[i] lxor 0x40));
    match Session.open_ sr (Bytes.to_string corrupted) with
    | None -> ()
    | Some _ -> Alcotest.failf "bit flip at byte %d accepted" i
  done;
  (* the intact original still opens — the loop never consumed its seqno *)
  Alcotest.(check bool) "original opens after the onslaught" true
    (Session.open_ sr sealed = Some "payload under fire");
  (* ...exactly once: an immediate replay is a counter violation *)
  Alcotest.(check bool) "replay rejected" true (Session.open_ sr sealed = None);
  (* replay of an old frame after newer traffic was accepted out of order *)
  let a = Session.seal su "a" and b = Session.seal su "b" in
  let c = Session.seal su "c" in
  Alcotest.(check bool) "newest first" true (Session.open_ sr c = Some "c");
  Alcotest.(check bool) "skipped frame a dead" true (Session.open_ sr a = None);
  Alcotest.(check bool) "skipped frame b dead" true (Session.open_ sr b = None);
  Alcotest.(check bool) "replaying c dead too" true (Session.open_ sr c = None);
  (* generation mismatch: traffic sealed pre-ratchet must not open
     post-ratchet (and vice versa), only resynchronised peers talk *)
  let old_frame = Session.seal su "old" in
  Session.rekey sr;
  Alcotest.(check bool) "pre-ratchet frame rejected by ratcheted peer" true
    (Session.open_ sr old_frame = None);
  Session.rekey su;
  Alcotest.(check bool) "resynchronised peers talk" true
    (Session.open_ sr (Session.seal su "fresh") = Some "fresh")

let test_router_resend_cache () =
  (* default: strict §V-A replay rule — an already-answered M.2 is
     rejected. With the resend cache: the cached M.3 comes back verbatim
     with no second verification (the hardened lossy-link recovery). *)
  let run_with ~cache =
    let _config, _clock, d = make_deployment () in
    let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
    let router = Deployment.add_router d ~router_id:7 in
    if cache then Mesh_router.enable_resend_cache router;
    let bob = ok_or_fail_str "bob" (Deployment.add_user d identity_bob) in
    let beacon = Mesh_router.beacon router in
    let request, _pending =
      ok_or_fail "process beacon" (User.process_beacon bob beacon)
    in
    let first =
      ok_or_fail "first M.2" (Mesh_router.handle_access_request router request)
    in
    let verifications = Mesh_router.verifications_performed router in
    (router, request, first, verifications)
  in
  (* strict mode *)
  let router, request, _first, _ = run_with ~cache:false in
  (match Mesh_router.handle_access_request router request with
  | Error Protocol_error.Stale_timestamp -> ()
  | Error e ->
    Alcotest.failf "strict replay: expected Stale_timestamp, got %s"
      (Protocol_error.to_string e)
  | Ok _ -> Alcotest.fail "strict replay accepted");
  Alcotest.(check int) "strict mode never resends" 0
    (Mesh_router.confirms_resent router);
  (* resend-cache mode *)
  let router, request, (confirm, session), verifications =
    run_with ~cache:true
  in
  (match Mesh_router.handle_access_request router request with
  | Ok (confirm', session') ->
    Alcotest.(check bool) "identical cached confirm" true (confirm' = confirm);
    Alcotest.(check string) "same session" (Session.id session)
      (Session.id session')
  | Error e ->
    Alcotest.failf "resend rejected: %s" (Protocol_error.to_string e));
  Alcotest.(check int) "resend counted" 1 (Mesh_router.confirms_resent router);
  Alcotest.(check int) "no re-verification" verifications
    (Mesh_router.verifications_performed router);
  Alcotest.(check int) "no duplicate session" 1
    (List.length (Mesh_router.access_log router))

let test_router_outstanding_bound () =
  let _config, clock, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  (* a beacon flood cannot grow the pending-handshake table past the
     bound; the clock advances so "oldest" is well defined *)
  for _ = 1 to Mesh_router.max_outstanding + 8 do
    Clock.advance clock 10;
    ignore (Mesh_router.beacon router)
  done;
  Alcotest.(check int) "table bounded under beacon flood"
    Mesh_router.max_outstanding
    (Mesh_router.outstanding_count router);
  (* the freshest beacon survived the eviction: a handshake against it works *)
  let bob = ok_or_fail_str "bob" (Deployment.add_user d identity_bob) in
  Clock.advance clock 10;
  let beacon = Mesh_router.beacon router in
  let request, _pending =
    ok_or_fail "process beacon" (User.process_beacon bob beacon)
  in
  (match Mesh_router.handle_access_request router request with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "freshest beacon evicted: %s" (Protocol_error.to_string e));
  Alcotest.(check int) "still bounded after handshake"
    Mesh_router.max_outstanding
    (Mesh_router.outstanding_count router)

let test_relay_envelope () =
  let config, _clock, d = make_deployment () in
  ignore config;
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let _gm2 = Deployment.add_group d ~group_id:2 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let alice = ok_or_fail_str "alice" (Deployment.add_user d identity_alice) in
  let bob = ok_or_fail_str "bob" (Deployment.add_user d identity_bob) in
  let sa, sb =
    ok_or_fail "peer auth"
      (Deployment.peer_authenticate d ~initiator:alice ~responder:bob ~router
         ~initiator_group:1 ())
  in
  let wrapped = Relay.wrap sa ~dst:"router-7" "the inner M.2 bytes" in
  (match Relay.unwrap sb wrapped with
  | Some (dst, payload) ->
    Alcotest.(check string) "dst" "router-7" dst;
    Alcotest.(check string) "payload" "the inner M.2 bytes" payload
  | None -> Alcotest.fail "unwrap failed");
  (* replay of the same wrapped frame is rejected *)
  Alcotest.(check bool) "relay replay rejected" true (Relay.unwrap sb wrapped = None);
  (* tampering is rejected *)
  let wrapped2 = Relay.wrap sa ~dst:"router-7" "x" in
  let t = Bytes.of_string wrapped2 in
  Bytes.set t (Bytes.length t - 1)
    (Char.chr (Char.code (Bytes.get t (Bytes.length t - 1)) lxor 1));
  Alcotest.(check bool) "tampered relay rejected" true
    (Relay.unwrap sb (Bytes.to_string t) = None);
  (* replies travel the other way *)
  let reply = Relay.wrap_reply sb "the M.3 bytes" in
  Alcotest.(check (option string)) "reply" (Some "the M.3 bytes")
    (Relay.unwrap_reply sa reply);
  (* a third party with a different session cannot unwrap *)
  let sc, _ =
    ok_or_fail "second peer auth"
      (Deployment.peer_authenticate d ~initiator:alice ~responder:bob ~router
         ~initiator_group:1 ())
  in
  Alcotest.(check bool) "foreign session cannot unwrap" true
    (Relay.unwrap sc (Relay.wrap sa ~dst:"d" "p") = None)

let test_router_redundancy () =
  (* §III-A deployment assumption: "revocation of individual mesh routers
     will not affect network connection" — overlapping coverage keeps
     users connected when one router is evicted *)
  let _config, _c, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router1 = Deployment.add_router d ~router_id:1 in
  let router2 = Deployment.add_router d ~router_id:2 in
  let user = ok_or_fail_str "user" (Deployment.add_user d identity_bob) in
  ignore (ok_or_fail "via router 1" (Deployment.authenticate d ~user ~router:router1 ()));
  Deployment.revoke_router d ~router_id:1;
  (* the revoked router's beacons are now refused... *)
  (match User.process_beacon user (Mesh_router.beacon router1) with
  | Error Protocol_error.Router_revoked -> ()
  | Ok _ -> Alcotest.fail "revoked router still accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Protocol_error.to_string e));
  (* ...but service continues through the redundant router *)
  ignore (ok_or_fail "via router 2" (Deployment.authenticate d ~user ~router:router2 ()))

let test_full_security_handshake () =
  (* the entire stack at the paper's security level (512-bit field,
     160-bit group): setup, enrollment, handshake, audit *)
  let c = clock () in
  let config =
    Config.default ~clock:c (Lazy.force Peace_pairing.Params.light)
  in
  let d = Deployment.create ~seed:"light-e2e" config in
  ignore (Deployment.add_group d ~group_id:1 ~size:1);
  let router = Deployment.add_router d ~router_id:1 in
  let user =
    ok_or_fail_str "user"
      (Deployment.add_user d
         (Identity.make ~uid:"u" ~name:"U" ~national_id:"u"
            [ { Identity.group_id = 1; description = "resident" } ]))
  in
  let su, sr = ok_or_fail "light auth" (Deployment.authenticate d ~user ~router ()) in
  Alcotest.(check bool) "sessions match at light params" true
    (Session.matches su sr);
  match Deployment.trace_session d router ~session_id:(Session.id su) with
  | Some r ->
    Alcotest.(check (option string)) "traces at light params" (Some "u")
      r.Law_authority.traced_uid
  | None -> Alcotest.fail "trace failed at light params"

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let shared_env =
  lazy
    (let _config, _clock, d = make_deployment ~seed:"qcheck-env" () in
     let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
     let router = Deployment.add_router d ~router_id:1 in
     let user = ok_or_fail_str "user" (Deployment.add_user d identity_bob) in
     (d, router, user))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"session carries arbitrary payload streams" ~count:30
      QCheck.(small_list string)
      (fun payloads ->
        let d, router, user = Lazy.force shared_env in
        match Deployment.authenticate d ~user ~router () with
        | Error _ -> false
        | Ok (su, sr) ->
          List.for_all
            (fun payload -> Session.open_ sr (Session.seal su payload) = Some payload)
            payloads);
    QCheck.Test.make ~name:"puzzles solve and verify at any small difficulty"
      ~count:30
      QCheck.(pair (int_bound 10) small_string)
      (fun (difficulty, seed) ->
        let rng =
          Peace_hash.Drbg.bytes_fn
            (Peace_hash.Drbg.create ~seed:("pz" ^ seed) ())
        in
        let puzzle = Puzzle.make ~rng ~difficulty in
        match Puzzle.solve puzzle with
        | Some solution -> Puzzle.check puzzle solution
        | None -> false);
    QCheck.Test.make ~name:"relay envelopes bind their destination" ~count:20
      QCheck.(pair small_string small_string)
      (fun (dst, payload) ->
        let d, router, user = Lazy.force shared_env in
        ignore router;
        ignore user;
        let alice = Option.get (Deployment.user d ~uid:"bob") in
        let router = Option.get (Deployment.router d ~router_id:1) in
        match
          Deployment.peer_authenticate d ~initiator:alice ~responder:alice
            ~router ()
        with
        | Error _ ->
          (* self-peer is not meaningful; fall back to a session pair *)
          true
        | Ok (sa, sb) -> begin
          match Relay.unwrap sb (Relay.wrap sa ~dst payload) with
          | Some (dst', payload') -> dst' = dst && payload' = payload
          | None -> false
        end);
  ]

(* --- the member's decode of the revocation list --- *)

let signed_url config ~seed n =
  let rng = Peace_hash.Drbg.bytes_fn (Peace_hash.Drbg.create ~seed ()) in
  let operator_key = Peace_ec.Ecdsa.generate config.Config.curve rng in
  let tokens = List.init n (fun _ -> G1.random config.Config.pairing rng) in
  Url.issue config ~operator_key ~seq:1 ~now:0 ~tokens

let minor_words f =
  let before = Gc.minor_words () in
  let v = Sys.opaque_identity (f ()) in
  (v, Gc.minor_words () -. before)

let decodes_to config bytes = function
  | Some url -> Url.to_bytes config url = bytes
  | None -> false

let test_url_decode_kept () =
  let config = Config.tiny_test () in
  let bytes = Url.to_bytes config (signed_url config ~seed:"url-kept" 4) in
  let first, fresh = minor_words (fun () -> Url.of_bytes config bytes) in
  let again, kept = minor_words (fun () -> Url.of_bytes config bytes) in
  Alcotest.(check bool) "decodes" true (decodes_to config bytes first);
  Alcotest.(check bool) "identical bytes give an equal URL" true (decodes_to config bytes again);
  Alcotest.(check bool) "the kept URL costs under 1/20 of a decode" true (kept *. 20. < fresh);
  (* a flipped bit in the first token's x: decoded afresh and refused, and
     the refusal does not replace the kept URL *)
  let flipped = Bytes.of_string bytes in
  let at = 4 + 8 + 4 + 4 + 2 (* seq, issued_at, count, length prefix, parity, x *) in
  Bytes.set flipped at (Char.chr (Char.code (Bytes.get flipped at) lxor 1));
  let flipped = Bytes.to_string flipped in
  Alcotest.(check bool) "flipped token refused" true (Url.of_bytes config flipped = None);
  Alcotest.(check bool) "and refused again" true (Url.of_bytes config flipped = None);
  let back, words = minor_words (fun () -> Url.of_bytes config bytes) in
  Alcotest.(check bool) "the original still decodes" true (decodes_to config bytes back);
  Alcotest.(check bool) "from the kept URL" true (words *. 20. < fresh);
  (* under another parameter set the same bytes are decoded afresh: tiny's
     tokens have the wrong width there *)
  let light = Config.default (Lazy.force Params.light) in
  Alcotest.(check bool) "other parameters decode afresh" true (Url.of_bytes light bytes = None)

let test_url_decode_across_domains () =
  (* two domains take strict turns, each decoding its own URL: each must
     get its own tokens back every time *)
  let config = Config.tiny_test () in
  let url seed = Url.to_bytes config (signed_url config ~seed 3) in
  let a = url "url-domain-a" and b = url "url-domain-b" in
  let turn = Atomic.make 0 and rounds = 40 in
  let decoder parity bytes () =
    List.init rounds (fun _ ->
        while Atomic.get turn land 1 <> parity do
          Domain.cpu_relax ()
        done;
        let ok = decodes_to config bytes (Url.of_bytes config bytes) in
        Atomic.incr turn;
        ok)
    |> List.for_all Fun.id
  in
  let da = Domain.spawn (decoder 0 a) and db = Domain.spawn (decoder 1 b) in
  Alcotest.(check bool) "first domain" true (Domain.join da);
  Alcotest.(check bool) "second domain" true (Domain.join db)

(* --- the member's decode of a repeat beacon --- *)

let test_beacon_decode_kept () =
  let config, _clock, d = make_deployment ~seed:"beacon-kept" () in
  let router = Deployment.add_router d ~router_id:3 in
  let bytes = Messages.beacon_to_bytes config (Mesh_router.beacon router) in
  let kept = Option.get (Messages.beacon_of_bytes config bytes) in
  let again = Option.get (Messages.beacon_of_bytes config bytes) in
  Alcotest.(check bool) "identical bytes return the kept value" true (again == kept);
  (* one flipped byte anywhere: refused, or a value decoded afresh from
     exactly those bytes; the original bytes then decode afresh too *)
  let fresh = ref 0 in
  for i = 0 to String.length bytes - 1 do
    let flipped = Bytes.of_string bytes in
    Bytes.set flipped i (Char.chr (Char.code bytes.[i] lxor 0x01));
    let flipped = Bytes.to_string flipped in
    match Messages.beacon_of_bytes config flipped with
    | None -> ()
    | Some b ->
      incr fresh;
      if b == kept then Alcotest.failf "byte %d: the kept beacon came back" i;
      if Messages.beacon_to_bytes config b <> flipped then
        Alcotest.failf "byte %d: not decoded from the flipped bytes" i
  done;
  Alcotest.(check bool) "some flips decode" true (!fresh > 0);
  let current = Option.get (Messages.beacon_of_bytes config bytes) in
  Alcotest.(check bool) "decoded afresh after a flip decoded" true (current != kept);
  Alcotest.(check string) "to the same beacon" bytes (Messages.beacon_to_bytes config current);
  (* a failed decode leaves the entry in place *)
  Alcotest.(check bool) "garbage refused" true (Messages.beacon_of_bytes config "garbage" = None);
  Alcotest.(check bool) "the kept value survives a refusal" true
    (Option.get (Messages.beacon_of_bytes config bytes) == current)

let test_beacon_decode_across_domains () =
  (* two domains take strict turns, each decoding its own router's beacon:
     each must get its own beacon back every time *)
  let config, _clock, d = make_deployment ~seed:"beacon-domains" () in
  let encoded router_id =
    Messages.beacon_to_bytes config
      (Mesh_router.beacon (Deployment.add_router d ~router_id))
  in
  let a = encoded 1 and b = encoded 2 in
  let turn = Atomic.make 0 and rounds = 40 in
  let decoder parity bytes () =
    List.init rounds (fun _ ->
        while Atomic.get turn land 1 <> parity do
          Domain.cpu_relax ()
        done;
        let ok =
          match Messages.beacon_of_bytes config bytes with
          | Some beacon -> Messages.beacon_to_bytes config beacon = bytes
          | None -> false
        in
        Atomic.incr turn;
        ok)
    |> List.for_all Fun.id
  in
  let da = Domain.spawn (decoder 0 a) and db = Domain.spawn (decoder 1 b) in
  Alcotest.(check bool) "first domain" true (Domain.join da);
  Alcotest.(check bool) "second domain" true (Domain.join db)

let test_beacon_decode_stops_early () =
  (* a malformed ECDSA-signature field stops the decode before the points
     and the 20-token URL, which the process has not decoded before *)
  let config, _clock, d = make_deployment ~seed:"early-stop" () in
  let router = Deployment.add_router d ~router_id:7 in
  let b =
    { (Mesh_router.beacon router) with Messages.url = signed_url config ~seed:"beacon-url" 20 }
  in
  let encode sig_field =
    let w = Wire.writer () in
    Wire.u32 w b.Messages.router_id;
    Wire.bytes w (G1.encode config.Config.pairing b.Messages.g);
    Wire.bytes w (G1.encode config.Config.pairing b.Messages.g_rr);
    Wire.u64 w b.Messages.ts1;
    Wire.bytes w "";
    Wire.bytes w sig_field;
    Wire.bytes w (Cert.to_bytes config b.Messages.cert);
    Wire.bytes w (Cert.crl_to_bytes config b.Messages.crl);
    Wire.bytes w (Url.to_bytes config b.Messages.url);
    Wire.contents w
  in
  let sig_field =
    Peace_ec.Ecdsa.signature_to_bytes config.Config.curve b.Messages.beacon_sig
  in
  Alcotest.(check string) "the beacon's layout" (Messages.beacon_to_bytes config b)
    (encode sig_field);
  let malformed = String.sub sig_field 1 (String.length sig_field - 1) in
  let refused, refused_words =
    minor_words (fun () -> Messages.beacon_of_bytes config (encode malformed))
  in
  Alcotest.(check bool) "malformed signature refused" true (refused = None);
  let decoded, full_words = minor_words (fun () -> Messages.beacon_of_bytes config (encode sig_field)) in
  Alcotest.(check bool) "the beacon decodes" true (Option.is_some decoded);
  Alcotest.(check bool) "refused for under 1/20 of a full decode" true
    (refused_words *. 20. < full_words)

let test_stale_crl_checked_first () =
  (* both failures are Bad_revocation_list, so staleness is checked before
     the CRL's and the URL's signatures: a stale beacon pays only for the
     certificate's verify (one two-term product, two counts) *)
  let config, c, d = make_deployment () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "add bob" (Deployment.add_user d identity_bob) in
  let scalar_muls = Peace_obs.Registry.counter "ec.scalar_mul" in
  let process beacon =
    let before = Peace_obs.Registry.Counter.value scalar_muls in
    let verdict = Result.map (fun _ -> ()) (User.process_beacon bob beacon) in
    (verdict, Peace_obs.Registry.Counter.value scalar_muls - before)
  in
  let verdict, muls = process (Mesh_router.beacon router) in
  Alcotest.(check (result unit perr)) "fresh beacon accepted" (Ok ()) verdict;
  Alcotest.(check int) "certificate, CRL, URL and beacon verified" 8 muls;
  Clock.advance c (config.Config.crl_period_ms + 1);
  let verdict, muls = process (Mesh_router.beacon router) in
  Alcotest.(check (result unit perr)) "stale CRL refused"
    (Error Protocol_error.Bad_revocation_list) verdict;
  Alcotest.(check int) "only the certificate verified" 2 muls

(* a beacon costs its router one ECDSA signature; two seeded beacons
   keep the bytes recorded when each beacon was signed twice *)
let test_beacon_signed_once () =
  let config, _c, d = make_deployment ~seed:"beacon-golden" () in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let scalar_muls = Peace_obs.Registry.counter "ec.scalar_mul" in
  let digest b =
    Peace_hash.Sha256.to_hex (Peace_hash.Sha256.digest (Messages.beacon_to_bytes config b))
  in
  let before = Peace_obs.Registry.Counter.value scalar_muls in
  let first = Mesh_router.beacon router in
  Alcotest.(check int) "one scalar multiplication" 1
    (Peace_obs.Registry.Counter.value scalar_muls - before);
  Alcotest.(check string) "first beacon"
    "fbd5f89c1c7ea36f816728396777070ff5c02d34a1d91d66de9a754d314da1bd" (digest first);
  Alcotest.(check string) "second beacon"
    "1c7dd72571c67270de07d9bfb2d3a94167881b281fe74a774a6d1db3d1f0369b"
    (digest (Mesh_router.beacon router))

let test_repeat_beacon_skips_signatures () =
  (* a CRL period and certificate lifetime short enough to run past both
     inside one beacon's timestamp window *)
  let c = clock () in
  let config =
    { (Config.tiny_test ~clock:c ()) with
      Config.crl_period_ms = 60_000;
      cert_lifetime_ms = 70_000;
    }
  in
  let d = Deployment.create ~seed:"repeat-beacon" config in
  let _gm = Deployment.add_group d ~group_id:1 ~size:4 in
  let router = Deployment.add_router d ~router_id:7 in
  let bob = ok_or_fail_str "add bob" (Deployment.add_user d identity_bob) in
  let scalar_muls = Peace_obs.Registry.counter "ec.scalar_mul" in
  let process beacon =
    let before = Peace_obs.Registry.Counter.value scalar_muls in
    let verdict = Result.map (fun _ -> ()) (User.process_beacon bob beacon) in
    (verdict, Peace_obs.Registry.Counter.value scalar_muls - before)
  in
  let check label expected (verdict, muls) want_muls =
    Alcotest.(check (result unit perr)) label expected verdict;
    Alcotest.(check int) (label ^ ": scalar multiplications") want_muls muls
  in
  Clock.advance c 50_000;
  let beacon = Mesh_router.beacon router in
  check "first" (Ok ()) (process beacon) 8;
  check "repeat" (Ok ()) (process beacon) 0;
  (* equal in every field but one signature byte: fully checked *)
  let curve = config.Config.curve in
  let sig_bytes =
    Bytes.of_string (Peace_ec.Ecdsa.signature_to_bytes curve beacon.Messages.beacon_sig)
  in
  let last = Bytes.length sig_bytes - 1 in
  Bytes.set sig_bytes last (Char.chr (Char.code (Bytes.get sig_bytes last) lxor 1));
  let forged =
    { beacon with
      Messages.beacon_sig =
        Option.get (Peace_ec.Ecdsa.signature_of_bytes curve (Bytes.to_string sig_bytes));
    }
  in
  check "one signature byte flipped" (Error Protocol_error.Bad_beacon_signature)
    (process forged) 8;
  check "the kept beacon still skips" (Ok ()) (process beacon) 0;
  (* every other check still runs on the repeat, in the same order *)
  let revoking =
    Cert.issue_crl config
      ~operator_key:(Peace_ec.Ecdsa.generate curve (Deployment.rng d))
      ~seq:(beacon.Messages.crl.Cert.seq + 1) ~now:(Clock.now c) ~revoked:[ 7 ]
  in
  User.learn_lists bob revoking beacon.Messages.url;
  check "a fresher known CRL revokes the router" (Error Protocol_error.Router_revoked)
    (process beacon) 0;
  Clock.advance c 11_000;
  check "past the CRL period" (Error Protocol_error.Bad_revocation_list) (process beacon) 0;
  Clock.advance c 10_000;
  check "past the certificate's expiry"
    (Error (Protocol_error.Bad_router_certificate Cert.Expired))
    (process beacon) 0;
  Clock.advance c 10_000;
  check "past the timestamp window" (Error Protocol_error.Stale_timestamp) (process beacon) 0

let test_puzzle_gate_reject_decodes_nothing () =
  (* a well-formed (M.2) without a puzzle solution, at a `light` router
     under attack: its framing and precheck decode no point, so together
     they allocate less than 1/20 of one point decode *)
  let c = clock () in
  let config = Config.default ~clock:c (Lazy.force Params.light) in
  let params = config.Config.pairing in
  let d = Deployment.create ~seed:"puzzle-gate" config in
  let gpk = Deployment.gpk d in
  let router = Deployment.add_router d ~router_id:1 in
  Mesh_router.set_under_attack router ~difficulty:8;
  let beacon = Mesh_router.beacon router in
  let rng = Deployment.rng d in
  let point () = G1.random params rng in
  let scalar () = Bigint.random_below rng params.Params.q in
  let hostile =
    {
      Messages.g_rj = point ();
      ar_g_rr = beacon.Messages.g_rr;
      ts2 = Clock.now c;
      gsig =
        {
          Group_sig.r_nonce = rng ((Bigint.num_bits params.Params.q + 7) / 8);
          t1 = point ();
          t2 = point ();
          c = scalar ();
          s_alpha = scalar ();
          s_x = scalar ();
          s_delta = scalar ();
        };
      puzzle_solution = None;
    }
  in
  let bytes = Messages.access_request_to_bytes config gpk hostile in
  let encoding = G1.encode params hostile.Messages.g_rj in
  let decoded, decode_words = minor_words (fun () -> G1.decode params encoding) in
  Alcotest.(check bool) "the point decodes" true (Option.is_some decoded);
  let verdict, reject_words =
    minor_words (fun () ->
        match Messages.access_frame_of_bytes config gpk bytes with
        | None -> Alcotest.fail "well-formed frame refused"
        | Some f -> Mesh_router.access_precheck_frame router f)
  in
  (match verdict with
  | `Reject Protocol_error.Puzzle_required -> ()
  | `Reject e -> Alcotest.failf "refused %s" (Protocol_error.to_string e)
  | `Resend _ | `Verify _ -> Alcotest.fail "not refused at the puzzle gate");
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words refusing, %.0f decoding one point" reject_words decode_words)
    true
    (reject_words *. 20. < decode_words);
  Alcotest.(check int) "no verification counted" 0 (Mesh_router.verifications_performed router)

let test_deployment_rng_across_domains () =
  (* the operator, every router and every user draw from the deployment's
     one DRBG, and a live run draws from several domains at once: two
     domains' draws must never repeat each other *)
  let _, _, d = make_deployment () in
  let draws = 20_000 in
  let draw () = List.init draws (fun _ -> Deployment.rng d 16) in
  let a = Domain.spawn draw and b = Domain.spawn draw in
  let all = Domain.join a @ Domain.join b in
  Alcotest.(check int) "every draw distinct" (2 * draws)
    (List.length (List.sort_uniq String.compare all))

let suite =
  [
    ( "setup",
      [
        Alcotest.test_case "three-way key split" `Quick test_setup_key_split;
        Alcotest.test_case "blinding involution" `Quick test_blinding_involution;
      ] );
    ( "user-router",
      [
        Alcotest.test_case "handshake" `Quick test_user_router_handshake;
        Alcotest.test_case "replay/staleness" `Quick test_replay_and_staleness;
        Alcotest.test_case "rogue router" `Quick test_rogue_router_rejected;
        Alcotest.test_case "revoked router" `Quick test_revoked_router_rejected;
        Alcotest.test_case "outsider" `Quick test_outsider_rejected;
        Alcotest.test_case "revocation eviction" `Quick test_user_revocation_eviction;
        Alcotest.test_case "client puzzles" `Quick test_puzzles_under_attack;
        Alcotest.test_case "stale CRL checked first" `Quick test_stale_crl_checked_first;
        Alcotest.test_case "beacon signed once" `Quick test_beacon_signed_once;
        Alcotest.test_case "repeat beacon skips signatures" `Quick
          test_repeat_beacon_skips_signatures;
        Alcotest.test_case "puzzle-gate reject decodes nothing" `Quick
          test_puzzle_gate_reject_decodes_nothing;
      ] );
    ( "user-user",
      [
        Alcotest.test_case "handshake" `Quick test_user_user_handshake;
        Alcotest.test_case "revoked peer" `Quick test_peer_revoked_rejected;
      ] );
    ( "audit",
      [
        Alcotest.test_case "audit and trace" `Quick test_audit_and_trace;
        Alcotest.test_case "role separation" `Quick test_audit_role_separation;
      ] );
    ( "infrastructure",
      [
        Alcotest.test_case "message round trips" `Quick test_message_round_trips;
        Alcotest.test_case "certificate lifecycle" `Quick test_certificate_lifecycle;
        Alcotest.test_case "session counters" `Quick test_session_counters;
        Alcotest.test_case "relay envelope" `Quick test_relay_envelope;
        Alcotest.test_case "session rekey" `Quick test_session_rekey;
        Alcotest.test_case "session adversity" `Quick test_session_adversity;
        Alcotest.test_case "router resend cache" `Quick test_router_resend_cache;
        Alcotest.test_case "outstanding bound" `Quick test_router_outstanding_bound;
        Alcotest.test_case "router redundancy" `Quick test_router_redundancy;
        Alcotest.test_case "full-security end-to-end" `Slow test_full_security_handshake;
        Alcotest.test_case "puzzle module" `Quick test_puzzle_module;
        Alcotest.test_case "deployment rng across domains" `Quick
          test_deployment_rng_across_domains;
        Alcotest.test_case "URL decode kept" `Quick test_url_decode_kept;
        Alcotest.test_case "URL decode across domains" `Quick test_url_decode_across_domains;
        Alcotest.test_case "beacon decode stops early" `Quick test_beacon_decode_stops_early;
        Alcotest.test_case "beacon decode kept" `Quick test_beacon_decode_kept;
        Alcotest.test_case "beacon decode across domains" `Quick
          test_beacon_decode_across_domains;
      ] );
    ("core-properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

let () = Alcotest.run "peace-core" suite
