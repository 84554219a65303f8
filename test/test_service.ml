(* Live-service tests: address parsing, the frame codec against hostile
   streams, the authority end-to-end over real sockets (happy path,
   malformed payloads, truncated frames, hostile (M.2)s, connections
   sharing a worker, idle connections, graceful shutdown), and the load
   generator's statistics and latency span. *)

open Peace_core
module Sock = Peace_sock
module Frames = Peace_service.Frames
module Testbed = Peace_service.Testbed
module Authority = Peace_service.Authority
module Loadgen = Peace_service.Loadgen

let ok_or_fail label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" label e

(* --- Peace_sock --- *)

let test_addr_parsing () =
  let round s expect =
    match Sock.addr_of_string s with
    | Error e -> Alcotest.failf "%s rejected: %s" s e
    | Ok a -> Alcotest.(check string) s expect (Sock.addr_to_string a)
  in
  round "tcp:127.0.0.1:7464" "tcp:127.0.0.1:7464";
  round "127.0.0.1:0" "tcp:127.0.0.1:0";
  round "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  List.iter
    (fun bad ->
      match Sock.addr_of_string bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error _ -> ())
    [ ""; "tcp:"; "tcp:host"; "host:notaport"; "tcp:h:99999"; "unix:" ]

let test_listen_errors () =
  (* double-bind the same TCP port: the second listen is an Error, not an
     exception *)
  let fd, bound =
    ok_or_fail "first listen" (Sock.listen (Sock.Tcp ("127.0.0.1", 0)))
  in
  Fun.protect
    ~finally:(fun () -> Sock.close_noerr fd)
    (fun () ->
      match Sock.listen bound with
      | Ok (fd2, _) ->
        Sock.close_noerr fd2;
        Alcotest.fail "double bind accepted"
      | Error msg ->
        Alcotest.(check bool)
          "mentions the address" true
          (Astring.String.is_infix ~affix:"127.0.0.1" msg));
  (* an over-long Unix path is an Error before bind is even attempted *)
  match Sock.listen (Sock.Unix_path (String.make 200 'p')) with
  | Ok (fd, _) ->
    Sock.close_noerr fd;
    Alcotest.fail "over-long unix path accepted"
  | Error _ -> ()

(* --- frame codec over a socketpair --- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Sock.close_noerr a;
      Sock.close_noerr b)
    (fun () -> f a b)

let test_frame_round_trip () =
  with_socketpair (fun a b ->
      List.iter
        (fun (tag, payload) ->
          ok_or_fail "write" (Frames.write a tag payload);
          match Frames.read b with
          | Ok (tag', payload') ->
            Alcotest.(check int)
              "tag" (Frames.tag_to_int tag) (Frames.tag_to_int tag');
            Alcotest.(check string) "payload" payload payload'
          | Error _ -> Alcotest.fail "read failed")
        [
          (Frames.Ping, "");
          (Frames.Access, "some payload");
          (Frames.Rejected, Frames.rejected_payload ~code:3 ~detail:"nope");
        ])

let test_frame_truncated () =
  (* half a frame then EOF: mid-frame close is `Err, not `Eof *)
  with_socketpair (fun a b ->
      let w = Wire.writer () in
      Wire.u32 w 100;
      Wire.u8 w (Frames.tag_to_int Frames.Access);
      Wire.raw w "only-a-little";
      ok_or_fail "write" (Sock.write_all a (Wire.contents w));
      Sock.close_noerr a;
      match Frames.read b with
      | Error (`Err _) -> ()
      | Error `Eof -> Alcotest.fail "mid-frame close reported as clean Eof"
      | Error `Timeout -> Alcotest.fail "unexpected timeout"
      | Ok _ -> Alcotest.fail "truncated frame decoded");
  (* clean close at a frame boundary is `Eof *)
  with_socketpair (fun a b ->
      Sock.close_noerr a;
      match Frames.read b with
      | Error `Eof -> ()
      | _ -> Alcotest.fail "boundary close is not Eof")

let test_frame_oversized () =
  with_socketpair (fun a b ->
      let w = Wire.writer () in
      Wire.u32 w (Frames.max_frame + 1);
      Wire.u8 w 2;
      ok_or_fail "write" (Sock.write_all a (Wire.contents w));
      (match Frames.read b with
      | Error (`Err _) -> ()
      | _ -> Alcotest.fail "oversized length prefix accepted");
      (* writing an oversized frame is refused locally too *)
      match Frames.write a Frames.Access (String.make (Frames.max_frame + 1) 'x') with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "oversized write accepted")

let test_rejected_payload () =
  (match Frames.parse_rejected (Frames.rejected_payload ~code:7 ~detail:"d") with
  | Some (7, "d") -> ()
  | _ -> Alcotest.fail "rejected payload round trip");
  Alcotest.(check (option (pair int string))) "garbage" None
    (Frames.parse_rejected "\x07nope");
  (* every protocol error class maps to a distinct nonzero stable code
     (Malformed_frame and Malformed deliberately share 14) *)
  let errs =
    Protocol_error.
      [
        Stale_timestamp; Bad_router_certificate Cert.Expired; Router_revoked;
        Bad_beacon_signature; Bad_revocation_list; Invalid_group_signature;
        User_revoked; Puzzle_required; Bad_puzzle_solution; Unknown_session;
        Decryption_failed; No_group_key; Timeout; Malformed_frame;
      ]
  in
  let codes = List.map Frames.error_code errs in
  Alcotest.(check int) "codes distinct" (List.length errs)
    (List.length (List.sort_uniq compare codes));
  Alcotest.(check int) "Malformed shares 14"
    (Frames.error_code Protocol_error.Malformed_frame)
    (Frames.error_code (Protocol_error.Malformed "x"));
  List.iter (fun c -> Alcotest.(check bool) "nonzero" true (c > 0)) codes

(* --- the Traced envelope --- *)

let ctx = { Frames.tc_trace = 0x1234_5678_9abc; tc_parent = 77 }

let test_traced_envelope () =
  (* round trip, for every request tag it may legally wrap *)
  List.iter
    (fun (tag, payload) ->
      match Frames.unwrap_traced (Frames.wrap_traced ~ctx tag payload) with
      | Ok (tag', payload', ctx') ->
        Alcotest.(check int) "inner tag survives" (Frames.tag_to_int tag)
          (Frames.tag_to_int tag');
        Alcotest.(check string) "payload survives" payload payload';
        Alcotest.(check bool) "trace context survives" true (ctx' = ctx)
      | Error e -> Alcotest.failf "unwrap failed: %s" e)
    [ (Frames.Ping, ""); (Frames.Get_beacon, ""); (Frames.Access, "payload") ];
  (* the parent span id is masked to 32 bits on the wire *)
  let wide = { Frames.tc_trace = 5; tc_parent = 0x1_0000_002a } in
  (match Frames.unwrap_traced (Frames.wrap_traced ~ctx:wide Frames.Ping "") with
  | Ok (_, _, c) -> Alcotest.(check int) "parent masked" 0x2a c.Frames.tc_parent
  | Error e -> Alcotest.failf "wide parent: %s" e);
  (* error cases: truncation, future version, nesting, unknown inner tag *)
  let reject label body =
    match Frames.unwrap_traced body with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  reject "truncated body" "\x01shrt";
  reject "empty body" "";
  let good = Frames.wrap_traced ~ctx Frames.Ping "" in
  reject "future version" ("\x02" ^ String.sub good 1 (String.length good - 1));
  reject "nested traced"
    (Frames.wrap_traced ~ctx Frames.Traced "inner");
  let bad_tag = Bytes.of_string good in
  Bytes.set bad_tag 13 '\xee';
  reject "unknown inner tag" (Bytes.to_string bad_tag)

(* --- the authority, end to end --- *)

let fresh_sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "peace-test-%d-%d.sock" (Unix.getpid ()) !n)

let with_authority ?(n_users = 2) ?(workers = 2) f =
  let testbed = Testbed.make ~seed:"service-test" ~n_users () in
  let server =
    ok_or_fail "start"
      (Authority.start ~workers ~config:testbed.Testbed.tb_config
         ~router:testbed.Testbed.tb_router
         (Sock.Unix_path (fresh_sock_path ())))
  in
  Fun.protect ~finally:(fun () -> Authority.stop server) (fun () -> f testbed server)

let connect_to server =
  let fd = ok_or_fail "connect" (Sock.connect (Authority.bound_addr server)) in
  Sock.set_timeout fd 5.0;
  fd

let request fd tag payload =
  ok_or_fail "write" (Frames.write fd tag payload);
  match Frames.read fd with
  | Ok reply -> reply
  | Error `Eof -> Alcotest.fail "server closed unexpectedly"
  | Error `Timeout -> Alcotest.fail "server did not answer in time"
  | Error (`Err e) -> Alcotest.failf "frame error: %s" e

let full_handshake testbed fd ~user =
  let config = testbed.Testbed.tb_config in
  let gpk = Mesh_router.current_gpk testbed.Testbed.tb_router in
  let beacon =
    match request fd Frames.Get_beacon "" with
    | Frames.Beacon, bytes -> (
      match Messages.beacon_of_bytes config bytes with
      | Some b -> b
      | None -> Alcotest.fail "undecodable beacon")
    | _ -> Alcotest.fail "expected Beacon"
  in
  let req, pending =
    match User.process_beacon user beacon with
    | Ok v -> v
    | Error e -> Alcotest.failf "process_beacon: %s" (Protocol_error.to_string e)
  in
  match
    request fd Frames.Access (Messages.access_request_to_bytes config gpk req)
  with
  | Frames.Confirm, bytes -> (
    match Messages.access_confirm_of_bytes config bytes with
    | Some confirm -> (
      match User.process_confirm user pending confirm with
      | Ok session -> session
      | Error e ->
        Alcotest.failf "process_confirm: %s" (Protocol_error.to_string e))
    | None -> Alcotest.fail "undecodable confirm")
  | Frames.Rejected, payload ->
    let detail =
      match Frames.parse_rejected payload with
      | Some (code, d) -> Frames.error_name code ^ ": " ^ d
      | None -> "?"
    in
    Alcotest.failf "rejected: %s" detail
  | _ -> Alcotest.fail "expected Confirm"

let test_authority_handshake () =
  with_authority (fun testbed server ->
      let fd = connect_to server in
      Fun.protect
        ~finally:(fun () -> Sock.close_noerr fd)
        (fun () ->
          (match request fd Frames.Ping "" with
          | Frames.Pong, _ -> ()
          | _ -> Alcotest.fail "expected Pong");
          let user = List.hd testbed.Testbed.tb_users in
          let _session = full_handshake testbed fd ~user in
          (* same connection still serves after a completed handshake *)
          match request fd Frames.Ping "" with
          | Frames.Pong, _ -> ()
          | _ -> Alcotest.fail "connection dead after handshake"))

let test_authority_malformed () =
  with_authority (fun testbed server ->
      let fd = connect_to server in
      Fun.protect
        ~finally:(fun () -> Sock.close_noerr fd)
        (fun () ->
          (* garbage (M.2): Rejected, and the connection survives *)
          (match request fd Frames.Access "complete garbage" with
          | Frames.Rejected, payload ->
            (match Frames.parse_rejected payload with
            | Some (code, _) ->
              Alcotest.(check string) "decode error code" "malformed"
                (Frames.error_name code)
            | None -> Alcotest.fail "unparseable Rejected payload")
          | _ -> Alcotest.fail "garbage not Rejected");
          (* a response-direction tag is Rejected too *)
          (match request fd Frames.Confirm "" with
          | Frames.Rejected, _ -> ()
          | _ -> Alcotest.fail "response tag not Rejected");
          (* and real work still succeeds on the very same connection *)
          let user = List.hd testbed.Testbed.tb_users in
          let _session = full_handshake testbed fd ~user in
          ()))

let test_authority_truncated_frame () =
  with_authority (fun testbed server ->
      (* connection 1 sends half a frame and hangs up: the server drops it
         without taking anyone else down *)
      let fd1 = connect_to server in
      let w = Wire.writer () in
      Wire.u32 w 500;
      Wire.u8 w (Frames.tag_to_int Frames.Access);
      Wire.raw w "half";
      ok_or_fail "write" (Sock.write_all fd1 (Wire.contents w));
      Sock.close_noerr fd1;
      (* connection 2 is unaffected *)
      let fd2 = connect_to server in
      Fun.protect
        ~finally:(fun () -> Sock.close_noerr fd2)
        (fun () ->
          let user = List.hd testbed.Testbed.tb_users in
          let _session = full_handshake testbed fd2 ~user in
          ()))

let test_authority_stop_idempotent () =
  let testbed = Testbed.make ~seed:"service-test" ~n_users:1 () in
  let path = fresh_sock_path () in
  let server =
    ok_or_fail "start"
      (Authority.start ~config:testbed.Testbed.tb_config
         ~router:testbed.Testbed.tb_router (Sock.Unix_path path))
  in
  Authority.stop server;
  Authority.stop server;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  (* the address is free for the next server immediately *)
  let server2 =
    ok_or_fail "restart"
      (Authority.start ~config:testbed.Testbed.tb_config
         ~router:testbed.Testbed.tb_router (Sock.Unix_path path))
  in
  Authority.stop server2

(* A worker serves every connection it holds, one ready frame at a time:
   three closed-loop clients on one worker all complete handshakes, and
   none waits for another to hang up. *)
let test_authority_one_worker_three_clients () =
  with_authority ~n_users:3 ~workers:1 (fun testbed server ->
      let r =
        ok_or_fail "loadgen"
          (Loadgen.run
             ~connect:(Authority.bound_addr server)
             ~testbed ~concurrency:3 ~duration_s:1.0 ())
      in
      Alcotest.(check (list (pair string int))) "no errors" [] r.Loadgen.lr_errors;
      let latencies = r.Loadgen.lr_latencies_ms in
      Alcotest.(check bool) "handshakes completed" true (Array.length latencies >= 3);
      let max_ms = latencies.(Array.length latencies - 1) in
      Alcotest.(check bool)
        (Printf.sprintf "max latency %.1f ms under 500 ms" max_ms)
        true (max_ms < 500.0))

(* A connection that sends nothing holds no worker: with as many idle
   connections open as there are workers, a member still completes a
   handshake. *)
let test_authority_idle_connections () =
  with_authority ~workers:2 (fun testbed server ->
      let idle = List.init 2 (fun _ -> connect_to server) in
      Fun.protect
        ~finally:(fun () -> List.iter Sock.close_noerr idle)
        (fun () ->
          let fd = connect_to server in
          Fun.protect
            ~finally:(fun () -> Sock.close_noerr fd)
            (fun () ->
              let user = List.hd testbed.Testbed.tb_users in
              let _session = full_handshake testbed fd ~user in
              ())))

(* Two clients land on two workers: while one drips a frame a byte at a
   time, which holds its worker, the other is still answered at once. *)
let test_authority_spreads_connections () =
  with_authority ~workers:2 (fun _testbed server ->
      let slow = connect_to server and fast = connect_to server in
      Fun.protect
        ~finally:(fun () -> List.iter Sock.close_noerr [ slow; fast ])
        (fun () ->
          (* one answered ping each: the server holds both *)
          List.iter
            (fun fd ->
              match request fd Frames.Ping "" with
              | Frames.Pong, _ -> ()
              | _ -> Alcotest.fail "expected Pong")
            [ slow; fast ];
          (* 17 bytes, one every 100 ms, each inside the server's 250 ms
             read timeout *)
          let frame =
            let w = Wire.writer () in
            Wire.u32 w 13;
            Wire.u8 w (Frames.tag_to_int Frames.Access);
            Wire.raw w (String.make 12 'x');
            Wire.contents w
          in
          let drip =
            Domain.spawn (fun () ->
                String.iter
                  (fun c ->
                    ignore (Sock.write_all slow (String.make 1 c));
                    Unix.sleepf 0.1)
                  frame)
          in
          Unix.sleepf 0.05;
          let t0 = Unix.gettimeofday () in
          (match request fast Frames.Ping "" with
          | Frames.Pong, _ -> ()
          | _ -> Alcotest.fail "expected Pong");
          let took = Unix.gettimeofday () -. t0 in
          Domain.join drip;
          Alcotest.(check bool)
            (Printf.sprintf "answered in %.3f s while the other client drips" took)
            true (took < 0.8)))

(* The worker whose turn to accept comes while it waits in select is
   woken at once: the first client goes to worker 0, which hands the
   turn to worker 1, and the second client's first ping is answered
   without waiting out worker 1's 250 ms select timeout. Seven rounds,
   so a worker left to its timeout fails one of them all but surely. *)
let test_authority_hands_over_turn () =
  with_authority ~workers:2 (fun _testbed server ->
      for round = 1 to 7 do
        let ping fd =
          match request fd Frames.Ping "" with
          | Frames.Pong, _ -> ()
          | _ -> Alcotest.fail "expected Pong"
        in
        let first = connect_to server in
        Fun.protect
          ~finally:(fun () -> Sock.close_noerr first)
          (fun () ->
            ping first;
            let t0 = Unix.gettimeofday () in
            let second = connect_to server in
            Fun.protect
              ~finally:(fun () -> Sock.close_noerr second)
              (fun () ->
                ping second;
                let took = Unix.gettimeofday () -. t0 in
                Alcotest.(check bool)
                  (Printf.sprintf "round %d: second client answered in %.3f s" round took)
                  true (took < 0.1)))
      done)

(* stop does not wait for idle clients to hang up: it closes the
   connections the workers hold, and each client then reads end of
   file *)
let test_authority_stop_with_idle_connections () =
  with_authority (fun _testbed server ->
      let idle = List.init 3 (fun _ -> connect_to server) in
      Fun.protect
        ~finally:(fun () -> List.iter Sock.close_noerr idle)
        (fun () ->
          (* one answered ping each: the server holds all three *)
          List.iter
            (fun fd ->
              match request fd Frames.Ping "" with
              | Frames.Pong, _ -> ()
              | _ -> Alcotest.fail "expected Pong")
            idle;
          let t0 = Unix.gettimeofday () in
          Authority.stop server;
          let took = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "stop took %.2f s, under 2 s" took)
            true (took < 2.0);
          List.iter
            (fun fd ->
              match Frames.read fd with
              | Error `Eof -> ()
              | _ -> Alcotest.fail "idle client not closed at a frame boundary")
            idle))

(* One worker holds both connections: when one loses frame sync the
   worker hangs up on it alone and keeps serving the other. *)
let test_authority_drops_only_bad_connection () =
  with_authority ~workers:1 (fun testbed server ->
      let bad = connect_to server and good = connect_to server in
      Fun.protect
        ~finally:(fun () -> List.iter Sock.close_noerr [ bad; good ])
        (fun () ->
          (* one answered ping each: the worker holds both *)
          List.iter
            (fun fd ->
              match request fd Frames.Ping "" with
              | Frames.Pong, _ -> ()
              | _ -> Alcotest.fail "expected Pong")
            [ bad; good ];
          (* a length header past max_frame, and nothing after it, so the
             server reads every byte sent before it hangs up *)
          let w = Wire.writer () in
          Wire.u32 w (Frames.max_frame + 1);
          ok_or_fail "write" (Sock.write_all bad (Wire.contents w));
          (match Frames.read bad with
          | Error `Eof -> ()
          | _ -> Alcotest.fail "connection kept after losing frame sync");
          let user = List.hd testbed.Testbed.tb_users in
          let _session = full_handshake testbed good ~user in
          ()))

(* The queue-depth gauge counts ready connections up as a pass finds
   them and down as it serves them: after concurrent traffic over two
   workers, with the workers joined, it is back where it started. *)
let test_authority_queue_depth_drains () =
  let depth = Peace_obs.Registry.gauge "service.conn_queue_depth" in
  let g = Peace_obs.Registry.Gauge.value in
  let before = g depth in
  with_authority ~n_users:3 ~workers:2 (fun testbed server ->
      let r =
        ok_or_fail "loadgen"
          (Loadgen.run
             ~connect:(Authority.bound_addr server)
             ~testbed ~concurrency:3 ~duration_s:0.5 ())
      in
      Alcotest.(check (list (pair string int))) "no errors" [] r.Loadgen.lr_errors;
      Alcotest.(check bool) "handshakes completed" true
        (Array.length r.Loadgen.lr_latencies_ms >= 3);
      Authority.stop server;
      Alcotest.(check int) "back to its start once the workers are joined"
        before (g depth))

let test_authority_traced_requests () =
  with_authority (fun testbed server ->
      let fd = connect_to server in
      Fun.protect
        ~finally:(fun () -> Sock.close_noerr fd)
        (fun () ->
          (* a Traced-wrapped Ping answers like a bare Ping *)
          (match
             request fd Frames.Traced (Frames.wrap_traced ~ctx Frames.Ping "")
           with
          | Frames.Pong, _ -> ()
          | _ -> Alcotest.fail "traced ping not answered");
          (* a garbage envelope is Rejected and the connection survives *)
          (match request fd Frames.Traced "\xff garbage" with
          | Frames.Rejected, _ -> ()
          | _ -> Alcotest.fail "garbage envelope not Rejected");
          (* so is a nested envelope *)
          (match
             request fd Frames.Traced
               (Frames.wrap_traced ~ctx Frames.Traced "inner")
           with
          | Frames.Rejected, _ -> ()
          | _ -> Alcotest.fail "nested envelope not Rejected");
          (* and a whole handshake still completes on this connection *)
          let user = List.hd testbed.Testbed.tb_users in
          let _session = full_handshake testbed fd ~user in
          ()))

(* --- rejections at the trust boundary --- *)

(* Each hostile (M.2) — forged, from a revoked member, replayed, stale —
   goes through a live authority and, built the same way, through
   [Mesh_router.handle_access_request] on an identically seeded router:
   the code of the Rejected frame must be the code of the router's own
   verdict. Two fixtures from one seed hold the same keys, so the same
   user signs on both sides. *)
let test_authority_rejections () =
  let fixture () =
    let tb = Testbed.make ~seed:"service-rejections" ~n_users:3 () in
    ok_or_fail "revoke"
      (Deployment.revoke_user tb.Testbed.tb_deployment ~uid:"u2" ~group_id:1);
    tb
  in
  let live = fixture () and reference = fixture () in
  let config = live.Testbed.tb_config in
  let q = config.Config.pairing.Peace_pairing.Params.q in
  let forge (r : Messages.access_request) =
    let s = r.Messages.gsig in
    { r with
      Messages.gsig =
        { s with
          Peace_groupsig.Group_sig.c =
            Peace_bigint.Modular.add s.Peace_groupsig.Group_sig.c
              Peace_bigint.Bigint.one q;
        };
    }
  in
  let stale (r : Messages.access_request) =
    { r with Messages.ts2 = r.Messages.ts2 - (2 * config.Config.ts_window_ms) }
  in
  let request_for (tb : Testbed.t) beacon ~user =
    match User.process_beacon (List.nth tb.Testbed.tb_users user) beacon with
    | Ok (r, _) -> r
    | Error e -> Alcotest.failf "process_beacon: %s" (Protocol_error.to_string e)
  in
  let server =
    ok_or_fail "start"
      (Authority.start ~config ~router:live.Testbed.tb_router
         (Sock.Unix_path (fresh_sock_path ())))
  in
  Fun.protect ~finally:(fun () -> Authority.stop server) @@ fun () ->
  let fd = connect_to server in
  Fun.protect ~finally:(fun () -> Sock.close_noerr fd) @@ fun () ->
  let gpk = Mesh_router.current_gpk live.Testbed.tb_router in
  let live_beacon =
    match request fd Frames.Get_beacon "" with
    | Frames.Beacon, bytes -> (
      match Messages.beacon_of_bytes config bytes with
      | Some b -> b
      | None -> Alcotest.fail "undecodable beacon")
    | _ -> Alcotest.fail "expected Beacon"
  in
  let ref_router = reference.Testbed.tb_router in
  let ref_beacon = Mesh_router.beacon ref_router in
  let send r = request fd Frames.Access (Messages.access_request_to_bytes config gpk r) in
  let perr = Alcotest.testable Protocol_error.pp Protocol_error.equal in
  let check_rejected label expected live_reply ref_result =
    match (live_reply, ref_result) with
    | _, Ok _ -> Alcotest.failf "%s: router accepted" label
    | (Frames.Rejected, payload), Error e -> (
      Alcotest.check perr (label ^ ": router verdict") expected e;
      match Frames.parse_rejected payload with
      | Some (code, _) ->
        Alcotest.(check int) (label ^ ": wire code = router code")
          (Frames.error_code e) code
      | None -> Alcotest.failf "%s: unparseable Rejected payload" label)
    | _, Error _ -> Alcotest.failf "%s: authority did not reject" label
  in
  List.iter
    (fun (label, user, tamper, expected) ->
      let live_reply = send (tamper (request_for live live_beacon ~user)) in
      let ref_result =
        Mesh_router.handle_access_request ref_router
          (tamper (request_for reference ref_beacon ~user))
      in
      check_rejected label expected live_reply ref_result)
    [
      ("forged", 0, forge, Protocol_error.Invalid_group_signature);
      ("revoked member", 2, Fun.id, Protocol_error.User_revoked);
      ("stale", 1, stale, Protocol_error.Stale_timestamp);
    ];
  (* two frames no decoded record can carry, for the live authority only:
     the precheck reads encodings, and points are decoded only after it *)
  let params = config.Config.pairing in
  let width = Peace_pairing.Params.group_element_bytes params in
  let encode = Peace_pairing.G1.encode params in
  let frame ~g_rj ~ts2 ~gsig (r : Messages.access_request) =
    let w = Wire.writer () in
    Wire.bytes w g_rj;
    Wire.bytes w (encode r.Messages.ar_g_rr);
    Wire.u64 w ts2;
    Wire.bytes w gsig;
    Wire.bytes w "";
    Wire.contents w
  in
  let code_of label = function
    | Frames.Rejected, payload -> (
      match Frames.parse_rejected payload with
      | Some (code, _) -> code
      | None -> Alcotest.failf "%s: unparseable Rejected payload" label)
    | _ -> Alcotest.failf "%s: not rejected" label
  in
  let not_a_point = String.make width '\x05' in
  let r = request_for live live_beacon ~user:0 in
  let gsig = Peace_groupsig.Group_sig.signature_to_bytes gpk r.Messages.gsig in
  (* the signature is the nonce, T1, T2 and four scalars of the nonce's width *)
  let t1_at = (String.length gsig - (2 * width)) / 5 in
  let bad_t1 =
    String.sub gsig 0 t1_at ^ not_a_point
    ^ String.sub gsig (t1_at + width) (String.length gsig - t1_at - width)
  in
  let verified = Mesh_router.verifications_performed live.Testbed.tb_router in
  Alcotest.(check int) "T1 not a point: unparseable" 14
    (code_of "T1 not a point"
       (request fd Frames.Access
          (frame ~g_rj:(encode r.Messages.g_rj) ~ts2:r.Messages.ts2 ~gsig:bad_t1 r)));
  Alcotest.(check int) "T1 not a point: no verification counted" verified
    (Mesh_router.verifications_performed live.Testbed.tb_router);
  Alcotest.(check int) "stale with a garbage g_rj: refused as stale"
    (Frames.error_code Protocol_error.Stale_timestamp)
    (code_of "stale garbage g_rj"
       (request fd Frames.Access
          (frame ~g_rj:not_a_point ~ts2:(stale r).Messages.ts2 ~gsig r)));
  (* replayed: a genuine request is accepted once, its copy rejected *)
  let live_req = request_for live live_beacon ~user:1 in
  let ref_req = request_for reference ref_beacon ~user:1 in
  (match send live_req with
  | Frames.Confirm, _ -> ()
  | _ -> Alcotest.fail "replay: first copy not confirmed");
  (match Mesh_router.handle_access_request ref_router ref_req with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "replay: router rejected the first copy: %s"
      (Protocol_error.to_string e));
  check_rejected "replayed" Protocol_error.Stale_timestamp (send live_req)
    (Mesh_router.handle_access_request ref_router ref_req)

let test_authority_start_validates () =
  let testbed = Testbed.make ~seed:"service-test" ~n_users:1 () in
  let start ?workers ?beacon_period_ms () =
    ignore
      (Authority.start ?workers ?beacon_period_ms
         ~config:testbed.Testbed.tb_config ~router:testbed.Testbed.tb_router
         (Sock.Unix_path (fresh_sock_path ())))
  in
  Alcotest.check_raises "workers < 1"
    (Invalid_argument "Authority.start: workers must be >= 1")
    (start ~workers:0);
  Alcotest.check_raises "beacon_period_ms < 1"
    (Invalid_argument "Authority.start: beacon_period_ms must be >= 1")
    (start ~beacon_period_ms:0)

(* the ledger's record of a session the live authority accepted is enough
   for the §IV-D audit: read back, it traces to the member's group and
   uid *)
let test_authority_session_audited () =
  Ledger_fixture.with_ledger @@ fun ledger ->
  with_authority (fun testbed server ->
      let fd = connect_to server in
      let session =
        Fun.protect
          ~finally:(fun () -> Sock.close_noerr fd)
          (fun () -> full_handshake testbed fd ~user:(List.hd testbed.Testbed.tb_users))
      in
      match
        Deployment.trace_session testbed.Testbed.tb_deployment ~ledger:(ledger ())
          ~session_id:(Session.id session)
      with
      | None -> Alcotest.fail "the ledger does not attribute the live session"
      | Some r ->
        Alcotest.(check int) "group" 1 r.Law_authority.traced_group_id;
        Alcotest.(check (option string)) "uid" (Some "u0") r.Law_authority.traced_uid)

(* --- distributed trace stitching --- *)

(* tiny fixed-order JSONL field scanners (same trick as test_obs) *)

let after line pat =
  let n = String.length pat in
  let rec find i =
    if i + n > String.length line then None
    else if String.sub line i n = pat then Some (i + n)
    else find (i + 1)
  in
  find 0

let int_field line key =
  match after line ("\"" ^ key ^ "\":") with
  | None -> None
  | Some i ->
    let j = ref i in
    while
      !j < String.length line
      && (match line.[!j] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr j
    done;
    if !j = i then None else Some (int_of_string (String.sub line i (!j - i)))

let str_field line key =
  match after line ("\"" ^ key ^ "\":\"") with
  | None -> None
  | Some i -> (
    match String.index_from_opt line i '"' with
    | None -> None
    | Some j -> Some (String.sub line i (j - i)))

module Trace = Peace_obs.Trace

let test_trace_stitching () =
  (* drive a traced loadgen run against a live authority in-process, then
     check the combined span stream forms one connected tree per
     completed handshake: client root -> client round-trip children ->
     server spans joined on (trace, remote_parent) *)
  let lines = ref [] in
  Trace.set_collector
    (Some (Peace_obs.Expo.jsonl_to (fun l -> lines := l :: !lines)));
  let report =
    Fun.protect
      ~finally:(fun () -> Trace.set_collector None)
      (fun () ->
        with_authority ~n_users:2 (fun testbed server ->
            ok_or_fail "loadgen"
              (Loadgen.run
                 ~connect:(Authority.bound_addr server)
                 ~testbed ~concurrency:2 ~duration_s:0.5 ())))
  in
  Alcotest.(check bool) "handshakes completed" true (report.Loadgen.lr_ok > 0);
  let lines = List.rev !lines in
  let begins = List.filter (fun l -> after l "\"ev\":\"B\"" <> None) lines in
  let named n = List.filter (fun l -> str_field l "name" = Some n) begins in
  let roots = named "loadgen.handshake" in
  Alcotest.(check bool) "one root per attempted handshake" true
    (List.length roots >= report.Loadgen.lr_ok);
  List.iter
    (fun r ->
      Alcotest.(check bool) "roots are parentless and trace-stamped" true
        (after r "\"parent\":null" <> None && int_field r "trace" <> None))
    roots;
  let children =
    named "loadgen.get_beacon" @ named "loadgen.access"
  in
  let server_spans = named "service.request" in
  (* index client spans by (trace, id); server spans must join on it *)
  let child_keys =
    List.filter_map
      (fun c ->
        match (int_field c "trace", int_field c "id") with
        | Some t, Some i -> Some (t, i)
        | _ -> None)
      children
  in
  let joined =
    List.filter
      (fun s ->
        match (int_field s "trace", int_field s "remote_parent") with
        | Some t, Some rp -> List.mem (t, rp) child_keys
        | _ -> false)
      server_spans
  in
  (* every completed handshake made 2 round trips; both server spans must
     land in the client's tree *)
  Alcotest.(check bool)
    (Printf.sprintf "server spans join client trees (%d joined, %d ok)"
       (List.length joined) report.Loadgen.lr_ok)
    true
    (List.length joined >= 2 * report.Loadgen.lr_ok);
  (* each client child hangs off its handshake root, so the tree is
     connected end to end *)
  let root_keys =
    List.filter_map
      (fun r ->
        match (int_field r "trace", int_field r "id") with
        | Some t, Some i -> Some (t, i)
        | _ -> None)
      roots
  in
  List.iter
    (fun c ->
      match (int_field c "trace", int_field c "parent") with
      | Some t, Some p ->
        Alcotest.(check bool) "child's parent is its trace's root" true
          (List.mem (t, p) root_keys)
      | _ -> Alcotest.fail "client child missing trace or parent")
    children;
  (* distinct handshakes get distinct traces *)
  let traces = List.filter_map (fun r -> int_field r "trace") roots in
  Alcotest.(check int) "one fresh trace id per handshake"
    (List.length traces)
    (List.length (List.sort_uniq compare traces))

(* --- degraded health --- *)

module Serve = Peace_obs.Serve

let test_authority_degraded_health () =
  with_authority (fun testbed server ->
      (* healthy at rest: both authority checks are registered and pass *)
      let names = List.map fst (Serve.health_results ()) in
      Alcotest.(check bool) "authority checks registered" true
        (List.mem "authority.queue" names && List.mem "authority.errors" names);
      let fd = connect_to server in
      Fun.protect
        ~finally:(fun () -> Sock.close_noerr fd)
        (fun () ->
          (* a burst of garbage: every request errors, tripping the
             error-rate window (>=10 events, >50% errors) *)
          for _ = 1 to 12 do
            match request fd Frames.Access "complete garbage" with
            | Frames.Rejected, _ -> ()
            | _ -> Alcotest.fail "garbage not Rejected"
          done;
          (* scrape a colocated /healthz: the degraded check turns it 503 *)
          let port = Atomic.make 0 in
          let scrape_server =
            Domain.spawn (fun () ->
                Serve.serve ~port:0 ~max_requests:1
                  ~on_listen:(fun p -> Atomic.set port p)
                  ())
          in
          let rec wait_port tries =
            if Atomic.get port = 0 then
              if tries = 0 then Alcotest.fail "scrape server never listened"
              else begin
                Unix.sleepf 0.01;
                wait_port (tries - 1)
              end
          in
          wait_port 500;
          (match Serve.http_get ~port:(Atomic.get port) "/healthz" with
          | Ok (code, body) ->
            Alcotest.(check int) "degraded authority answers 503" 503 code;
            Alcotest.(check bool) "and names the failing check" true
              (Astring.String.is_infix ~affix:"authority.errors" body
              && Astring.String.is_infix ~affix:"errors in the last" body)
          | Error e -> Alcotest.failf "healthz scrape: %s" e);
          (match Domain.join scrape_server with
          | Ok () -> ()
          | Error e -> Alcotest.failf "scrape server: %s" e);
          (* the next window is clean again: health recovers *)
          let user = List.hd testbed.Testbed.tb_users in
          let _session = full_handshake testbed fd ~user in
          List.iter
            (fun (n, r) ->
              if n = "authority.errors" then
                Alcotest.(check bool) "recovers once the burst passes" true
                  (r = Ok ()))
            (Serve.health_results ())));
  (* stop unregisters: no stale checks leak into later tests *)
  Alcotest.(check bool) "checks unregistered on stop" false
    (List.exists
       (fun (n, _) -> n = "authority.queue" || n = "authority.errors")
       (Serve.health_results ()))

(* --- loadgen statistics --- *)

(* an open loop whose arrivals find no server still reports them: against
   a listener that never accepts, each attempt waits out its timeout, and
   the arrivals scheduled behind it count as attempted and unsent *)
let test_loadgen_counts_unsent () =
  let path = fresh_sock_path () in
  let listener, addr = ok_or_fail "listen" (Sock.listen (Sock.Unix_path path)) in
  Fun.protect
    ~finally:(fun () ->
      Sock.close_noerr listener;
      Sys.remove path)
    (fun () ->
      let testbed = Testbed.make ~seed:"service-test" ~n_users:2 () in
      let r =
        ok_or_fail "loadgen"
          (Loadgen.run ~connect:addr ~testbed ~rate:100. ~duration_s:0.5
             ~timeout_s:0.2 ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d attempted of about 50 scheduled" r.Loadgen.lr_attempted)
        true (r.Loadgen.lr_attempted >= 30);
      Alcotest.(check bool) "unsent among the errors" true
        (List.mem_assoc "unsent" r.Loadgen.lr_errors);
      Alcotest.(check int) "attempted = ok + errors" r.Loadgen.lr_attempted
        (r.Loadgen.lr_ok + List.fold_left (fun a (_, n) -> a + n) 0 r.Loadgen.lr_errors))

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Loadgen.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Loadgen.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p50" 50.5 (Loadgen.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Loadgen.percentile [||] 99.0);
  Alcotest.(check (float 1e-9)) "single" 7.0 (Loadgen.percentile [| 7.0 |] 95.0)

let test_impairment_parsing () =
  (match Loadgen.impairments_of_string "jitter:2.5,drop:0.05,malformed:0.1,truncate:0" with
  | Ok i ->
    Alcotest.(check (float 1e-9)) "jitter" 2.5 i.Loadgen.im_jitter_ms;
    Alcotest.(check (float 1e-9)) "drop" 0.05 i.Loadgen.im_drop_p;
    Alcotest.(check (float 1e-9)) "malformed" 0.1 i.Loadgen.im_malformed_p;
    Alcotest.(check bool) "not empty" false (Loadgen.is_no_impairments i)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Loadgen.impairments_of_string bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error _ -> ())
    [ "drop:1.5"; "drop:-0.1"; "jitter:-1"; "wat:3"; "drop" ]

let test_loadgen_against_authority () =
  with_authority ~n_users:2 (fun testbed server ->
      match
        Loadgen.run
          ~connect:(Authority.bound_addr server)
          ~testbed ~concurrency:2 ~duration_s:0.5
          ~impair:
            { Loadgen.no_impairments with Loadgen.im_malformed_p = 0.2 }
          ()
      with
      | Error e -> Alcotest.fail e
      | Ok r ->
        Alcotest.(check bool) "made progress" true (r.Loadgen.lr_ok > 0);
        Alcotest.(check int)
          "latencies = ok" r.Loadgen.lr_ok
          (Array.length r.Loadgen.lr_latencies_ms);
        Alcotest.(check bool)
          "throughput > 0" true (r.Loadgen.lr_throughput_rps > 0.0))

(* Both loops time the same span: in closed loop the clock starts with
   the handshake, before the beacon fetch, so every recorded latency
   covers its handshake from the [loadgen.get_beacon] child's begin to
   the [loadgen.access] child's end — the client's signing between them
   included — and stays inside the [loadgen.handshake] root. *)
let test_loadgen_latency_span () =
  let recorder = Peace_obs.Expo.recorder () in
  Trace.set_collector (Some (Peace_obs.Expo.record recorder));
  let report =
    Fun.protect
      ~finally:(fun () -> Trace.set_collector None)
      (fun () ->
        with_authority ~n_users:1 (fun testbed server ->
            ok_or_fail "loadgen"
              (Loadgen.run
                 ~connect:(Authority.bound_addr server)
                 ~testbed ~concurrency:1 ~duration_s:0.5 ())))
  in
  let events = List.map fst (Peace_obs.Expo.events recorder) in
  let begins = Hashtbl.create 64 and ends = Hashtbl.create 64 in
  List.iter
    (function
      | Trace.Begin { name; id; parent; ts; _ } ->
        Hashtbl.replace begins id (name, parent, ts)
      | Trace.End { id; ts; dur; _ } -> Hashtbl.replace ends id (ts, dur))
    events;
  let child root name =
    Hashtbl.fold
      (fun id (n, parent, ts) acc ->
        if n = name && parent = Some root then Some (id, ts) else acc)
      begins None
  in
  (* per completed handshake: (beacon begin -> access end, root duration) *)
  let spans =
    Hashtbl.fold
      (fun root (name, _, _) acc ->
        match (name, child root "loadgen.get_beacon", child root "loadgen.access") with
        | "loadgen.handshake", Some (_, beacon_begin), Some (access, _) -> (
          match (Hashtbl.find_opt ends access, Hashtbl.find_opt ends root) with
          | Some (access_end, _), Some (_, root_dur) ->
            (float_of_int (access_end - beacon_begin) /. 1e6, float_of_int root_dur /. 1e6)
            :: acc
          | _ -> acc)
        | _ -> acc)
      begins []
  in
  let latencies = report.Loadgen.lr_latencies_ms in
  Alcotest.(check bool) "handshakes completed" true (Array.length latencies > 0);
  Alcotest.(check int) "one traced handshake per latency" (Array.length latencies)
    (List.length spans);
  (* order statistics preserve a pairwise bound, so sorted latencies are
     compared with sorted spans; 0.05 ms absorbs clock rounding *)
  let sorted f = Array.of_list (List.sort compare (List.map f spans)) in
  let covered = sorted fst and roots = sorted snd in
  Array.iteri
    (fun i l ->
      Alcotest.(check bool)
        (Printf.sprintf "latency %.3f ms covers M.1 -> M.3 (%.3f ms)" l covered.(i))
        true
        (l >= covered.(i) -. 0.05);
      Alcotest.(check bool)
        (Printf.sprintf "latency %.3f ms inside the handshake (%.3f ms)" l roots.(i))
        true
        (l <= roots.(i) +. 0.05))
    latencies

let suite =
  [
    ( "sock",
      [
        Alcotest.test_case "address parsing" `Quick test_addr_parsing;
        Alcotest.test_case "listen errors" `Quick test_listen_errors;
      ] );
    ( "frames",
      [
        Alcotest.test_case "round trip" `Quick test_frame_round_trip;
        Alcotest.test_case "truncated stream" `Quick test_frame_truncated;
        Alcotest.test_case "oversized frame" `Quick test_frame_oversized;
        Alcotest.test_case "rejected payloads" `Quick test_rejected_payload;
        Alcotest.test_case "traced envelope" `Quick test_traced_envelope;
      ] );
    ( "authority",
      [
        Alcotest.test_case "handshake end to end" `Quick test_authority_handshake;
        Alcotest.test_case "malformed payloads survive" `Quick
          test_authority_malformed;
        Alcotest.test_case "truncated frame isolates" `Quick
          test_authority_truncated_frame;
        Alcotest.test_case "stop is graceful + idempotent" `Quick
          test_authority_stop_idempotent;
        Alcotest.test_case "one worker serves three clients" `Quick
          test_authority_one_worker_three_clients;
        Alcotest.test_case "idle connections hold no worker" `Quick
          test_authority_idle_connections;
        Alcotest.test_case "clients spread over workers" `Quick
          test_authority_spreads_connections;
        Alcotest.test_case "turn to accept passes at once" `Quick
          test_authority_hands_over_turn;
        Alcotest.test_case "stop closes idle connections" `Quick
          test_authority_stop_with_idle_connections;
        Alcotest.test_case "lost frame sync drops one connection" `Quick
          test_authority_drops_only_bad_connection;
        Alcotest.test_case "queue depth drains to zero" `Quick
          test_authority_queue_depth_drains;
        Alcotest.test_case "traced requests" `Quick test_authority_traced_requests;
        Alcotest.test_case "live session audited from the ledger" `Quick
          test_authority_session_audited;
        Alcotest.test_case "degraded health surfaces on /healthz" `Quick
          test_authority_degraded_health;
        Alcotest.test_case "hostile M.2 matches router verdict" `Quick
          test_authority_rejections;
        Alcotest.test_case "start validates its options" `Quick
          test_authority_start_validates;
      ] );
    ( "tracing",
      [
        Alcotest.test_case "loadgen<->authority stitching" `Quick
          test_trace_stitching;
      ] );
    ( "loadgen",
      [
        Alcotest.test_case "percentiles" `Quick test_percentile;
        Alcotest.test_case "impairment grammar" `Quick test_impairment_parsing;
        Alcotest.test_case "against a live authority" `Quick
          test_loadgen_against_authority;
        Alcotest.test_case "closed-loop latency spans M.1 to M.3" `Quick
          test_loadgen_latency_span;
        Alcotest.test_case "open loop counts unsent arrivals" `Quick
          test_loadgen_counts_unsent;
      ] );
  ]

let () = Alcotest.run "peace-service" suite
