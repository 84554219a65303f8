(* Live-service tests: address parsing, the connection queue under
   contention, the frame codec against hostile streams, the authority
   end-to-end over real sockets (happy path, malformed payloads, truncated
   frames, hostile (M.2)s, graceful shutdown), and the load generator's
   statistics and latency span. *)

open Peace_core
module Sock = Peace_sock
module Bounded_queue = Peace_service.Bounded_queue
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

(* --- Bounded_queue --- *)

let test_queue_fifo () =
  let q = Bounded_queue.create ~capacity:4 in
  Alcotest.(check int) "capacity" 4 (Bounded_queue.capacity q);
  List.iter (Bounded_queue.push q) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Bounded_queue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Bounded_queue.pop q);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Bounded_queue.create: capacity must be >= 1") (fun () ->
      ignore (Bounded_queue.create ~capacity:0))

let test_queue_capacity_and_close () =
  let q = Bounded_queue.create ~capacity:2 in
  Bounded_queue.push q 1;
  Bounded_queue.push q 2;
  Bounded_queue.close q;
  Bounded_queue.close q (* idempotent *);
  Alcotest.check_raises "push after close" Bounded_queue.Closed (fun () ->
      Bounded_queue.push q 4);
  (* queued items remain poppable after close, then None *)
  Alcotest.(check (option int)) "drain 1" (Some 1) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "drain 2" (Some 2) (Bounded_queue.pop q);
  Alcotest.(check (option int)) "drained" None (Bounded_queue.pop q)

let test_queue_backpressure () =
  (* a producer domain pushes far more items than the queue holds; the
     consumer observes every item in order and the queue never exceeds its
     capacity — so the producer must have blocked rather than grown it *)
  let capacity = 3 and total = 200 in
  let q = Bounded_queue.create ~capacity in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to total do
          Bounded_queue.push q i
        done;
        Bounded_queue.close q)
  in
  let seen = ref 0 and in_order = ref true and max_len = ref 0 in
  let rec drain () =
    match Bounded_queue.pop q with
    | None -> ()
    | Some i ->
      incr seen;
      if i <> !seen then in_order := false;
      max_len := Stdlib.max !max_len (Bounded_queue.length q);
      drain ()
  in
  drain ();
  Domain.join producer;
  Alcotest.(check int) "all items" total !seen;
  Alcotest.(check bool) "in order" true !in_order;
  Alcotest.(check bool)
    (Printf.sprintf "bounded (max observed %d <= %d)" !max_len capacity)
    true (!max_len <= capacity)

let test_queue_mpmc () =
  (* several producers and consumers hammer one queue; every pushed value
     is popped exactly once *)
  let q = Bounded_queue.create ~capacity:4 in
  let per_producer = 50 and producers = 2 and consumers = 2 in
  let produce base () =
    for i = 0 to per_producer - 1 do
      Bounded_queue.push q (base + i)
    done
  in
  let consume () =
    let rec go acc = match Bounded_queue.pop q with
      | None -> acc
      | Some v -> go (v :: acc)
    in
    go []
  in
  let prods = List.init producers (fun p -> Domain.spawn (produce (1000 * p))) in
  let cons = List.init consumers (fun _ -> Domain.spawn consume) in
  List.iter Domain.join prods;
  Bounded_queue.close q;
  let got = List.concat_map Domain.join cons in
  let expected =
    List.concat
      (List.init producers (fun p -> List.init per_producer (fun i -> (1000 * p) + i)))
  in
  Alcotest.(check (list int)) "every item exactly once"
    (List.sort compare expected) (List.sort compare got)

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
    ( "bounded-queue",
      [
        Alcotest.test_case "fifo" `Quick test_queue_fifo;
        Alcotest.test_case "capacity and close" `Quick test_queue_capacity_and_close;
        Alcotest.test_case "producer backpressure" `Quick test_queue_backpressure;
        Alcotest.test_case "mpmc contention" `Quick test_queue_mpmc;
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
        Alcotest.test_case "traced requests" `Quick test_authority_traced_requests;
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
      ] );
  ]

let () = Alcotest.run "peace-service" suite
