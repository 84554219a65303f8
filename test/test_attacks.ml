(* Adversarial protocol tests beyond the basics: man-in-the-middle field
   manipulation on every message, cross-session confusion, signature
   transplanting, malformed-wire fuzzing against live entities, and
   key-material misuse. Every case asserts the precise rejection. *)

open Peace_bigint
open Peace_pairing
open Peace_core

let make () =
  let c = Clock.manual ~start:1_000_000 () in
  let config = Config.tiny_test ~clock:c () in
  let d = Deployment.create ~seed:"attack-seed" config in
  ignore (Deployment.add_group d ~group_id:1 ~size:8);
  let router = Deployment.add_router d ~router_id:1 in
  (config, c, d, router)

let ident uid =
  Identity.make ~uid ~name:uid ~national_id:uid
    [ { Identity.group_id = 1; description = "member" } ]

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "protocol error: %s" (Protocol_error.to_string e)

let ok_str = function Ok v -> v | Error e -> Alcotest.failf "error: %s" e

let reject label = function
  | Ok _ -> Alcotest.failf "%s: accepted" label
  | Error _ -> ()

(* --- MITM on (M.2): every mutable field, changed in flight --- *)

let test_mitm_access_request () =
  let config, _c, d, router = make () in
  let user = ok_str (Deployment.add_user d (ident "u")) in
  let params = config.Config.pairing in
  let fresh_request () =
    let beacon = Mesh_router.beacon router in
    fst (ok (User.process_beacon user beacon))
  in
  let other_point =
    G1.mul params (Bigint.of_int 12345) (G1.generator params)
  in
  (* swapped DH share: signature no longer covers the transcript *)
  let r = fresh_request () in
  reject "swapped g_rj"
    (Mesh_router.handle_access_request router { r with Messages.g_rj = other_point });
  (* retargeted to a different outstanding beacon *)
  let r1 = fresh_request () in
  let beacon2 = Mesh_router.beacon router in
  reject "retargeted g_rr"
    (Mesh_router.handle_access_request router
       { r1 with Messages.ar_g_rr = beacon2.Messages.g_rr });
  (* shifted timestamp *)
  let r2 = fresh_request () in
  reject "shifted ts2"
    (Mesh_router.handle_access_request router { r2 with Messages.ts2 = r2.Messages.ts2 + 1 });
  (* transplanted signature from another (valid) request *)
  let r3 = fresh_request () in
  let r4 = fresh_request () in
  reject "transplanted signature"
    (Mesh_router.handle_access_request router { r3 with Messages.gsig = r4.Messages.gsig });
  (* the untampered request still works (checks are not vacuous) *)
  let r5 = fresh_request () in
  ignore (ok (Mesh_router.handle_access_request router r5))

(* --- MITM on (M.3) --- *)

let test_mitm_access_confirm () =
  let config, _c, d, router = make () in
  let user = ok_str (Deployment.add_user d (ident "u")) in
  let params = config.Config.pairing in
  let beacon = Mesh_router.beacon router in
  let request, pending = ok (User.process_beacon user beacon) in
  let confirm, _ = ok (Mesh_router.handle_access_request router request) in
  (* the echoes are encodings: another point's encoding in either place *)
  let other_point =
    G1.encode params (G1.mul params (Bigint.of_int 999) (G1.generator params))
  in
  reject "swapped confirm g_rj"
    (User.process_confirm user pending { confirm with Messages.ac_g_rj = other_point });
  reject "swapped confirm g_rr"
    (User.process_confirm user pending { confirm with Messages.ac_g_rr = other_point });
  let tampered =
    let b = Bytes.of_string confirm.Messages.payload in
    Bytes.set b 12 (Char.chr (Char.code (Bytes.get b 12) lxor 0x40));
    { confirm with Messages.payload = Bytes.to_string b }
  in
  reject "tampered payload" (User.process_confirm user pending tampered);
  (* pristine confirm still accepted *)
  ignore (ok (User.process_confirm user pending confirm))

(* --- (M.3)'s echoes are compared as bytes --- *)

let confirm_fixture () =
  let config, _c, d, router = make () in
  let user = ok_str (Deployment.add_user d (ident "u")) in
  let beacon = Mesh_router.beacon router in
  let request, pending = ok (User.process_beacon user beacon) in
  let confirm, _ = ok (Mesh_router.handle_access_request router request) in
  (config, user, beacon, request, pending, confirm)

let unknown_session label = function
  | Error Protocol_error.Unknown_session -> ()
  | Ok _ -> Alcotest.failf "%s: accepted" label
  | Error e -> Alcotest.failf "%s: %s" label (Protocol_error.to_string e)

let test_confirm_echo_encodings () =
  let config, user, _beacon, _request, pending, confirm = confirm_fixture () in
  let width = Params.group_element_bytes config.Config.pairing in
  (* right-length encodings of no point: a bad prefix, and x >= p *)
  List.iter
    (fun (label, junk) ->
      Alcotest.(check bool) (label ^ ": not a point") true
        (G1.decode config.Config.pairing junk = None);
      unknown_session (label ^ " as g_rj")
        (User.process_confirm user pending { confirm with Messages.ac_g_rj = junk });
      unknown_session (label ^ " as g_rr")
        (User.process_confirm user pending { confirm with Messages.ac_g_rr = junk }))
    [
      ("bad prefix", String.make width '\x05');
      ("x >= p", "\x02" ^ String.make (width - 1) '\xff');
    ];
  (* the prefix's parity bit flipped: the encoding of -P *)
  let negated echo =
    let b = Bytes.of_string echo in
    Bytes.set b 0 (Char.chr (Char.code echo.[0] lxor 0x01));
    let s = Bytes.to_string b in
    (match G1.decode config.Config.pairing s, G1.decode config.Config.pairing echo with
    | Some minus, Some p ->
      Alcotest.(check bool) "the flip names -P" true
        (G1.equal config.Config.pairing minus (G1.neg config.Config.pairing p))
    | _ -> Alcotest.fail "parity flip does not decode");
    s
  in
  unknown_session "-g_rj"
    (User.process_confirm user pending
       { confirm with Messages.ac_g_rj = negated confirm.Messages.ac_g_rj });
  unknown_session "-g_rr"
    (User.process_confirm user pending
       { confirm with Messages.ac_g_rr = negated confirm.Messages.ac_g_rr });
  ignore (ok (User.process_confirm user pending confirm))

let test_confirm_echo_oracle () =
  (* the reference: decode both echoes and compare points with the shares
     the member holds; it must agree with [process_confirm]'s byte
     comparison on every confirm below *)
  let config, user, beacon, request, pending, confirm = confirm_fixture () in
  let params = config.Config.pairing in
  let oracle_matches (c : Messages.access_confirm) =
    match (G1.decode params c.Messages.ac_g_rj, G1.decode params c.Messages.ac_g_rr) with
    | Some g_rj, Some g_rr ->
      G1.equal params g_rj request.Messages.g_rj
      && G1.equal params g_rr beacon.Messages.g_rr
    | _ -> false
  in
  let agree label c =
    match (oracle_matches c, User.process_confirm user pending c) with
    | true, Ok _ | false, Error Protocol_error.Unknown_session -> ()
    | true, Error e -> Alcotest.failf "%s: oracle matches, refused %s" label (Protocol_error.to_string e)
    | false, Ok _ -> Alcotest.failf "%s: oracle refuses, accepted" label
    | false, Error e ->
      Alcotest.failf "%s: oracle refuses, got %s" label (Protocol_error.to_string e)
  in
  agree "genuine" confirm;
  agree "swapped"
    { confirm with Messages.ac_g_rj = confirm.Messages.ac_g_rr; ac_g_rr = confirm.Messages.ac_g_rj };
  let mutate echo i mask =
    let b = Bytes.of_string echo in
    Bytes.set b i (Char.chr (Char.code echo.[i] lxor mask));
    Bytes.to_string b
  in
  List.iter
    (fun mask ->
      String.iteri
        (fun i _ ->
          agree (Printf.sprintf "g_rj byte %d ^ %#x" i mask)
            { confirm with Messages.ac_g_rj = mutate confirm.Messages.ac_g_rj i mask };
          agree (Printf.sprintf "g_rr byte %d ^ %#x" i mask)
            { confirm with Messages.ac_g_rr = mutate confirm.Messages.ac_g_rr i mask })
        confirm.Messages.ac_g_rj)
    [ 0x01; 0x80; 0xff ]

(* --- cross-session confusion: confirm from session A against pending B --- *)

let test_cross_session_confusion () =
  let _config, _c, d, router = make () in
  let user = ok_str (Deployment.add_user d (ident "u")) in
  let beacon_a = Mesh_router.beacon router in
  let request_a, pending_a = ok (User.process_beacon user beacon_a) in
  let beacon_b = Mesh_router.beacon router in
  let request_b, pending_b = ok (User.process_beacon user beacon_b) in
  let confirm_a, _ = ok (Mesh_router.handle_access_request router request_a) in
  let confirm_b, _ = ok (Mesh_router.handle_access_request router request_b) in
  reject "confirm A against pending B" (User.process_confirm user pending_b confirm_a);
  ignore (ok (User.process_confirm user pending_a confirm_a));
  ignore (ok (User.process_confirm user pending_b confirm_b))

(* --- wire fuzz against a live router --- *)

let test_wire_fuzz_against_router () =
  let config, _c, d, router = make () in
  let user = ok_str (Deployment.add_user d (ident "u")) in
  let gpk = Deployment.gpk d in
  let beacon = Mesh_router.beacon router in
  let request, _ = ok (User.process_beacon user beacon) in
  let bytes = Messages.access_request_to_bytes config gpk request in
  let rejected = ref 0 and parsed = ref 0 in
  for i = 0 to String.length bytes - 1 do
    let mutated = Bytes.of_string bytes in
    Bytes.set mutated i (Char.chr (Char.code bytes.[i] lxor 0xff));
    match Messages.access_request_of_bytes config gpk (Bytes.to_string mutated) with
    | None -> incr rejected
    | Some r -> begin
      incr parsed;
      (* anything that still parses must fail verification *)
      match Mesh_router.handle_access_request router r with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "byte-%d mutation accepted end-to-end" i
    end
  done;
  Alcotest.(check int) "every mutation rejected or failed verification"
    (String.length bytes) (!rejected + !parsed)

(* --- signature under the right gpk but wrong context --- *)

let test_peer_signature_not_valid_for_router () =
  let config, _c, d, router = make () in
  let user = ok_str (Deployment.add_user d (ident "u")) in
  let beacon = Mesh_router.beacon router in
  (* a valid peer-hello signature covers (g, g_rj, ts), not
     (g_rj, g_rr, ts): replaying it inside an access request must fail *)
  let hello, _ = ok (User.peer_hello user ~g:beacon.Messages.g ()) in
  let bogus =
    {
      Messages.g_rj = hello.Messages.ph_g_rj;
      ar_g_rr = beacon.Messages.g_rr;
      ts2 = hello.Messages.ph_ts1;
      gsig = hello.Messages.ph_gsig;
      puzzle_solution = None;
    }
  in
  (match Mesh_router.handle_access_request router bogus with
  | Error Protocol_error.Invalid_group_signature -> ()
  | Ok _ -> Alcotest.fail "context confusion accepted"
  | Error e -> Alcotest.failf "unexpected: %s" (Protocol_error.to_string e));
  ignore config

(* --- peer protocol MITM --- *)

let test_mitm_peer_protocol () =
  let config, _c, d, router = make () in
  let alice = ok_str (Deployment.add_user d (ident "alice")) in
  let bob = ok_str (Deployment.add_user d (ident "bob")) in
  let params = config.Config.pairing in
  let beacon = Mesh_router.beacon router in
  (* both peers need a URL view *)
  ignore (ok (Deployment.authenticate d ~user:alice ~router ()));
  ignore (ok (Deployment.authenticate d ~user:bob ~router ()));
  let beacon = { beacon with Messages.ts1 = Clock.now config.Config.clock } in
  ignore beacon;
  let beacon = Mesh_router.beacon router in
  let hello, pending_a = ok (User.peer_hello alice ~g:beacon.Messages.g ()) in
  let other = G1.mul params (Bigint.of_int 777) (G1.generator params) in
  (* hello with swapped share *)
  reject "peer hello swapped share"
    (User.process_peer_hello bob { hello with Messages.ph_g_rj = other });
  (* response manipulation *)
  let response, pending_b = ok (User.process_peer_hello bob hello) in
  reject "peer response swapped share"
    (User.process_peer_response alice pending_a
       { response with Messages.pr_g_rl = other });
  reject "peer response shifted ts"
    (User.process_peer_response alice pending_a
       { response with Messages.pr_ts2 = response.Messages.pr_ts2 + 60_000 });
  (* confirm manipulation *)
  let confirm, session_a =
    ok (User.process_peer_response alice pending_a response)
  in
  let tampered =
    let b = Bytes.of_string confirm.Messages.pc_payload in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 1));
    { confirm with Messages.pc_payload = Bytes.to_string b }
  in
  reject "peer confirm tampered" (User.process_peer_confirm bob pending_b tampered);
  let session_b = ok (User.process_peer_confirm bob pending_b confirm) in
  Alcotest.(check bool) "honest run still works" true
    (Session.matches session_a session_b)

(* --- key misuse: a gsk from one group cannot claim another group --- *)

let test_group_binding () =
  let config, _c, d, _router = make () in
  ignore (Deployment.add_group d ~group_id:2 ~size:4);
  let alice =
    ok_str
      (Deployment.add_user d
         (Identity.make ~uid:"dual" ~name:"d" ~national_id:"d"
            [
              { Identity.group_id = 1; description = "one" };
              { Identity.group_id = 2; description = "two" };
            ]))
  in
  ignore config;
  let no = Deployment.operator d in
  let rng = Peace_hash.Drbg.bytes_fn (Peace_hash.Drbg.create ~seed:"gb" ()) in
  let gpk = Deployment.gpk d in
  (* sign with the group-1 key; the audit must attribute group 1, never 2 *)
  ignore alice;
  let gm1 = Option.get (Deployment.group_manager d ~group_id:1) in
  ignore gm1;
  let user = Option.get (Deployment.user d ~uid:"dual") in
  let router = Option.get (Deployment.router d ~router_id:1) in
  let session, _ = ok (Deployment.authenticate d ~user ~router ~group_id:1 ()) in
  ignore session;
  let entry = List.hd (Mesh_router.access_log router) in
  (match
     Network_operator.audit no ~msg:entry.Mesh_router.le_transcript
       (Option.get (Mesh_router.logged_signature router entry))
   with
  | Some finding ->
    Alcotest.(check int) "attributed to group 1" 1
      finding.Network_operator.found_group_id
  | None -> Alcotest.fail "audit failed");
  ignore (rng, gpk)

(* --- malformed points in otherwise well-formed messages --- *)

let test_nonsubgroup_point_rejected () =
  (* G1.decode only accepts on-curve points, but on-curve points OUTSIDE
     the order-q subgroup could enable small-subgroup tricks; confirm the
     signature check catches them *)
  let config, _c, d, router = make () in
  let params = config.Config.pairing in
  let user = ok_str (Deployment.add_user d (ident "u")) in
  let beacon = Mesh_router.beacon router in
  let request, _ = ok (User.process_beacon user beacon) in
  (* find a curve point of full order p+1 (not in the q-subgroup) *)
  let fp = params.Params.fp in
  let rec find_nonsubgroup x =
    match Peace_ec.Ecp.lift params.Params.ec (Mont.of_int fp x) with
    | Some y when not (Mont.is_zero fp y) -> begin
      let pt = G1.of_affine params ~x:(Bigint.of_int x) ~y:(Mont.to_bigint fp y) in
      if not (G1.in_subgroup params pt) then pt else find_nonsubgroup (x + 1)
    end
    | _ -> find_nonsubgroup (x + 1)
  in
  let rogue_point = find_nonsubgroup 2 in
  Alcotest.(check bool) "found a non-subgroup point" false
    (G1.in_subgroup params rogue_point);
  reject "non-subgroup g_rj"
    (Mesh_router.handle_access_request router
       { request with Messages.g_rj = rogue_point })

(* --- randomized protocol interleaving fuzzer --- *)

let test_interleaving_fuzzer () =
  (* Drive random interleavings of beacons, access requests (fresh, stale,
     replayed, cross-wired) and confirms across several users, then check
     the global invariants: the router holds exactly one session per
     successfully-confirmed handshake, every session matches its user's,
     and no session exists that a user cannot account for. *)
  let _config, c, d, router = make () in
  let users =
    List.init 3 (fun i -> ok_str (Deployment.add_user d (ident (Printf.sprintf "f%d" i))))
  in
  let rand =
    let state = ref 20260705 in
    fun bound ->
      state := (!state * 2685821657736338717) + 1442695040888963407;
      (!state lsr 13) mod bound
  in
  let pendings = ref [] in (* (user, request, pending) not yet delivered *)
  let confirmed = ref [] in (* user sessions successfully established *)
  let router_accepted = ref 0 in (* M.2s the router verified (it commits then) *)
  let old_requests = ref [] in (* already-delivered M.2s, for replay *)
  for _step = 1 to 120 do
    match rand 6 with
    | 0 ->
      (* a user reacts to a fresh beacon *)
      let user = List.nth users (rand 3) in
      let beacon = Mesh_router.beacon router in
      (match User.process_beacon user beacon with
      | Ok (request, pending) -> pendings := (user, request, pending) :: !pendings
      | Error _ -> ())
    | 1 -> begin
      (* deliver a pending M.2 and its M.3 *)
      match !pendings with
      | [] -> ()
      | (user, request, pending) :: rest ->
        pendings := rest;
        old_requests := request :: !old_requests;
        (match Mesh_router.handle_access_request router request with
        | Ok (confirm, router_session) -> begin
          incr router_accepted;
          match User.process_confirm user pending confirm with
          | Ok user_session ->
            if not (Session.matches user_session router_session) then
              Alcotest.fail "established sessions disagree";
            confirmed := user_session :: !confirmed
          | Error _ -> Alcotest.fail "user rejected honest confirm"
        end
        | Error _ -> ())
    end
    | 2 -> begin
      (* replay an old M.2 *)
      match !old_requests with
      | [] -> ()
      | r :: _ -> begin
        match Mesh_router.handle_access_request router r with
        | Ok _ -> Alcotest.fail "replayed M.2 accepted"
        | Error _ -> ()
      end
    end
    | 3 -> begin
      (* cross-wire: deliver one pending request, confirm to the WRONG
         pending state *)
      match !pendings with
      | (u1, r1, _p1) :: (u2, _r2, p2) :: rest when u1 != u2 ->
        pendings := rest;
        old_requests := r1 :: !old_requests;
        (match Mesh_router.handle_access_request router r1 with
        | Ok (confirm, _) -> begin
          incr router_accepted;
          match User.process_confirm u2 p2 confirm with
          | Ok _ -> Alcotest.fail "cross-wired confirm accepted"
          | Error _ -> ()
        end
        | Error _ -> ())
      | _ -> ()
    end
    | 4 -> Clock.advance c (rand 2_000)
    | _ -> begin
      (* age a pending request past the window, then deliver: must fail *)
      match !pendings with
      | (user, request, _pending) :: rest when rand 4 = 0 ->
        ignore user;
        pendings := rest;
        Clock.advance c 40_000;
        (match Mesh_router.handle_access_request router request with
        | Ok _ -> Alcotest.fail "stale M.2 accepted"
        | Error _ -> ())
      | _ -> ()
    end
  done;
  (* global invariants: the router commits exactly once per verified M.2
     (never for replays/stale/cross-wired forgeries), and user-side
     confirmations are a subset of those *)
  Alcotest.(check int) "router sessions = verified M.2s" !router_accepted
    (Mesh_router.session_count router);
  Alcotest.(check bool) "confirmed <= router sessions" true
    (List.length !confirmed <= !router_accepted);
  (* every confirmed user session exists at the router and matches *)
  List.iter
    (fun user_session ->
      match Mesh_router.find_session router ~id:(Session.id user_session) with
      | Some rs ->
        Alcotest.(check bool) "pair matches" true (Session.matches user_session rs)
      | None -> Alcotest.fail "confirmed session missing at router")
    !confirmed;
  (* the fuzzer must have actually exercised the success path *)
  Alcotest.(check bool) "some handshakes completed" true
    (List.length !confirmed > 3)

let suite =
  [
    ( "mitm",
      [
        Alcotest.test_case "access request fields" `Quick test_mitm_access_request;
        Alcotest.test_case "access confirm fields" `Quick test_mitm_access_confirm;
        Alcotest.test_case "access confirm echo encodings" `Quick test_confirm_echo_encodings;
        Alcotest.test_case "access confirm echo oracle" `Quick test_confirm_echo_oracle;
        Alcotest.test_case "cross-session confusion" `Quick test_cross_session_confusion;
        Alcotest.test_case "peer protocol fields" `Quick test_mitm_peer_protocol;
      ] );
    ( "context-binding",
      [
        Alcotest.test_case "peer sig not valid for router" `Quick
          test_peer_signature_not_valid_for_router;
        Alcotest.test_case "group attribution binding" `Quick test_group_binding;
        Alcotest.test_case "non-subgroup point" `Quick test_nonsubgroup_point_rejected;
      ] );
    ( "fuzz",
      [
        Alcotest.test_case "byte-flip fuzz vs live router" `Slow
          test_wire_fuzz_against_router;
        Alcotest.test_case "interleaving fuzzer" `Slow test_interleaving_fuzzer;
      ] );
  ]

let () = Alcotest.run "peace-attacks" suite
