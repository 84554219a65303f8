open Peace_bigint
open Peace_ec
open Peace_pairing
open Peace_groupsig

type pending_access = {
  pa_r_j : Bigint.t;
  pa_g_rj : G1.point;
  pa_g_rr : G1.point;
  pa_g_rj_bytes : string; (* the shares' encodings, which (M.3) echoes *)
  pa_g_rr_bytes : string;
  pa_router_id : int;
}

type pending_peer = {
  pp_r_j : Bigint.t;
  pp_g_rj : G1.point;
  pp_ts1 : int;
}

type pending_peer_responder = {
  ppr_r_l : Bigint.t;
  ppr_g_rj : string; (* the shares' encodings, which (M̃.3) echoes *)
  ppr_g_rl : string;
  ppr_ts1 : int;
  ppr_ts2 : int;
  ppr_session : Session.t;
}

type t = {
  config : Config.t;
  identity : Identity.t;
  mutable gpk : Group_sig.gpk;
  operator_public : Curve.point;
  rng : int -> string;
  receipt_key : Ecdsa.keypair;
  keys : (int, Group_sig.gsk) Hashtbl.t; (* group_id -> gsk *)
  mutable url : Url.t option;
  mutable crl : Cert.crl option;
  mutable signed_beacon : Messages.beacon option;
      (* the last beacon whose four signatures all verified *)
  mutable puzzle_work : int;
}

let create config ~identity ~gpk ~operator_public ~rng =
  {
    config;
    identity;
    gpk;
    operator_public;
    rng;
    receipt_key = Ecdsa.generate config.Config.curve rng;
    keys = Hashtbl.create 4;
    url = None;
    crl = None;
    signed_beacon = None;
    puzzle_work = 0;
  }

let identity t = t.identity
let receipt_public_key t = t.receipt_key.Ecdsa.q
let now t = Clock.now t.config.Config.clock
let current_url t = t.url
let puzzle_work_done t = t.puzzle_work

(* --- enrollment --- *)

let enroll t ~credential ~blinded_a =
  let params = t.config.Config.pairing in
  let x = credential.Group_manager.mc_member_secret in
  let a_bytes = Blinding.apply ~x blinded_a in
  match G1.decode params a_bytes with
  | None -> Error "unblinded share is not a group element"
  | Some a -> begin
    match
      Group_sig.assemble_gsk t.gpk ~a
        ~grp:credential.Group_manager.mc_grp_secret ~x
    with
    | None -> Error "assembled key fails the SDH validity check"
    | Some gsk ->
      Hashtbl.replace t.keys credential.Group_manager.mc_group_id gsk;
      (* receipt over the TTP payload (non-repudiation, §IV-A) *)
      let w = Wire.writer () in
      Wire.raw w "peace-ttp-receipt-v1";
      Wire.u32 w credential.Group_manager.mc_group_id;
      Wire.u32 w credential.Group_manager.mc_index;
      Wire.bytes w blinded_a;
      Ok (Ecdsa.sign t.config.Config.curve ~key:t.receipt_key (Wire.contents w))
  end

let enrolled_groups t =
  Hashtbl.fold (fun group_id _ acc -> group_id :: acc) t.keys []
  |> List.sort compare

let pick_key t ?group_id () =
  match group_id with
  | Some id -> Hashtbl.find_opt t.keys id
  | None -> (
    match enrolled_groups t with
    | [] -> None
    | id :: _ -> Hashtbl.find_opt t.keys id)

(* --- user-router protocol --- *)

(* A beacon physically equal to the last one whose four signatures
   (certificate, CRL, URL, beacon) verified under the operator key skips
   those four verifies, and only those: records are immutable, so they
   would pass again. Every other check runs, in the same order. *)
let validate_beacon t (b : Messages.beacon) =
  let t_now = now t in
  let signed =
    match t.signed_beacon with Some known -> known == b | None -> false
  in
  let verified check = signed || check () in
  if abs (t_now - b.Messages.ts1) > t.config.Config.ts_window_ms then
    Error Protocol_error.Stale_timestamp
  else begin
    match
      if signed then
        if Cert.expired b.Messages.cert ~now:t_now then Error Cert.Expired else Ok ()
      else
        Cert.verify t.config ~operator_public:t.operator_public ~now:t_now
          b.Messages.cert
    with
    | Error e -> Error (Protocol_error.Bad_router_certificate e)
    | Ok () ->
      if b.Messages.cert.Cert.router_id <> b.Messages.router_id then
        Error (Protocol_error.Bad_router_certificate Cert.Malformed)
      else if
        (* a revoked router cannot produce the next periodic CRL, so a
           beacon carrying one past its re-issue period is refused — this
           bounds the phishing window of §V-A. Checked before the two
           signatures, which fail with the same error. *)
        Cert.crl_is_stale t.config b.Messages.crl ~now:t_now
        || not
             (verified (fun () ->
                  Cert.verify_crl t.config ~operator_public:t.operator_public
                    b.Messages.crl
                  = Ok ()))
        || not
             (verified (fun () ->
                  Url.verify t.config ~operator_public:t.operator_public
                    b.Messages.url))
      then Error Protocol_error.Bad_revocation_list
      else begin
        (* check against the freshest CRL known: the beacon's or a
           newer one previously learned from other routers *)
        let effective_crl =
          match t.crl with
          | Some known when known.Cert.seq > b.Messages.crl.Cert.seq -> known
          | _ -> b.Messages.crl
        in
        if Cert.crl_mem effective_crl ~router_id:b.Messages.router_id then
          Error Protocol_error.Router_revoked
        else if
          not
            (verified (fun () ->
                 Ecdsa.verify t.config.Config.curve
                   ~public:b.Messages.cert.Cert.public_key
                   (Messages.beacon_signed_payload t.config b)
                   b.Messages.beacon_sig))
        then Error Protocol_error.Bad_beacon_signature
        else begin
          t.signed_beacon <- Some b;
          Ok ()
        end
      end
  end

let process_beacon t ?group_id (b : Messages.beacon) =
  match validate_beacon t b with
  | Error e -> Error e
  | Ok () -> begin
    match pick_key t ?group_id () with
    | None -> Error Protocol_error.No_group_key
    | Some gsk -> begin
      (* adopt the beacon's revocation view when it is fresher *)
      (match t.url with
      | Some known when known.Url.seq > b.Messages.url.Url.seq -> ()
      | _ -> t.url <- Some b.Messages.url);
      (match t.crl with
      | Some known when known.Cert.seq > b.Messages.crl.Cert.seq -> ()
      | _ -> t.crl <- Some b.Messages.crl);
      let solution =
        match b.Messages.puzzle with
        | None -> Ok None
        | Some puzzle -> begin
          match Puzzle.solve puzzle with
          | Some s ->
            t.puzzle_work <- t.puzzle_work + Puzzle.solving_work puzzle s;
            Ok (Some s)
          | None -> Error Protocol_error.Bad_puzzle_solution
        end
      in
      match solution with
      | Error e -> Error e
      | Ok puzzle_solution ->
        let params = t.config.Config.pairing in
        let q = params.Params.q in
        let r_j = Bigint.random_range t.rng Bigint.one q in
        let g_rj = G1.mul params r_j b.Messages.g in
        let ts2 = now t in
        let transcript =
          Messages.auth_transcript t.config g_rj b.Messages.g_rr ts2
        in
        let gsig = Group_sig.sign t.gpk gsk ~rng:t.rng ~msg:transcript in
        Ok
          ( {
              Messages.g_rj;
              ar_g_rr = b.Messages.g_rr;
              ts2;
              gsig;
              puzzle_solution;
            },
            {
              pa_r_j = r_j;
              pa_g_rj = g_rj;
              pa_g_rr = b.Messages.g_rr;
              pa_g_rj_bytes = G1.encode params g_rj;
              pa_g_rr_bytes = G1.encode params b.Messages.g_rr;
              pa_router_id = b.Messages.router_id;
            } )
    end
  end

(* the echoed shares are compared as bytes: the encoding is canonical, so
   bytes that differ from the held shares' encodings name other points,
   or none *)
let process_confirm t pending (m : Messages.access_confirm) =
  if
    not
      (String.equal m.Messages.ac_g_rj pending.pa_g_rj_bytes
      && String.equal m.Messages.ac_g_rr pending.pa_g_rr_bytes)
  then Error Protocol_error.Unknown_session
  else begin
    let session =
      Session.derive t.config ~role:Session.Initiator
        ~local_secret:pending.pa_r_j ~remote_share:pending.pa_g_rr
        ~initiator_share:pending.pa_g_rj ~responder_share:pending.pa_g_rr
    in
    match Session.open_ session m.Messages.payload with
    | None -> Error Protocol_error.Decryption_failed
    | Some plaintext -> begin
      let open Wire in
      let r = reader plaintext in
      match
        let* router_id = read_u32 r in
        let* g_rj_bytes = read_bytes r in
        let* g_rr_bytes = read_bytes r in
        let* () = expect_end r in
        Ok (router_id, g_rj_bytes, g_rr_bytes)
      with
      | Error reason -> Error (Protocol_error.Malformed reason)
      | Ok (router_id, g_rj_bytes, g_rr_bytes) ->
        if
          router_id <> pending.pa_router_id
          || g_rj_bytes <> pending.pa_g_rj_bytes
          || g_rr_bytes <> pending.pa_g_rr_bytes
        then Error Protocol_error.Decryption_failed
        else Ok session
    end
  end

(* --- user-user protocol --- *)

let check_peer_signature t ~transcript gsig =
  let url_tokens = match t.url with Some u -> Url.tokens u | None -> [] in
  match Group_sig.verify t.gpk ~url:url_tokens ~msg:transcript gsig with
  | Group_sig.Valid -> Ok ()
  | Group_sig.Invalid_proof -> Error Protocol_error.Invalid_group_signature
  | Group_sig.Revoked -> Error Protocol_error.User_revoked

let peer_hello t ?group_id ~g () =
  match pick_key t ?group_id () with
  | None -> Error Protocol_error.No_group_key
  | Some gsk ->
    let params = t.config.Config.pairing in
    let q = params.Params.q in
    let r_j = Bigint.random_range t.rng Bigint.one q in
    let g_rj = G1.mul params r_j g in
    let ts1 = now t in
    let transcript = Messages.auth_transcript t.config g g_rj ts1 in
    let gsig = Group_sig.sign t.gpk gsk ~rng:t.rng ~msg:transcript in
    Ok
      ( { Messages.ph_g = g; ph_g_rj = g_rj; ph_ts1 = ts1; ph_gsig = gsig },
        { pp_r_j = r_j; pp_g_rj = g_rj; pp_ts1 = ts1 } )

let process_peer_hello t ?group_id (m : Messages.peer_hello) =
  let t_now = now t in
  if abs (t_now - m.Messages.ph_ts1) > t.config.Config.ts_window_ms then
    Error Protocol_error.Stale_timestamp
  else begin
    let transcript =
      Messages.auth_transcript t.config m.Messages.ph_g m.Messages.ph_g_rj
        m.Messages.ph_ts1
    in
    match check_peer_signature t ~transcript m.Messages.ph_gsig with
    | Error e -> Error e
    | Ok () -> begin
      match pick_key t ?group_id () with
      | None -> Error Protocol_error.No_group_key
      | Some gsk ->
        let params = t.config.Config.pairing in
        let q = params.Params.q in
        let r_l = Bigint.random_range t.rng Bigint.one q in
        let g_rl = G1.mul params r_l m.Messages.ph_g in
        let ts2 = t_now in
        let g_rj_bytes = G1.encode params m.Messages.ph_g_rj in
        let g_rl_bytes = G1.encode params g_rl in
        let transcript2 =
          Messages.auth_transcript_of_encodings g_rj_bytes g_rl_bytes ts2
        in
        let gsig = Group_sig.sign t.gpk gsk ~rng:t.rng ~msg:transcript2 in
        let session =
          Session.derive t.config ~role:Session.Responder ~local_secret:r_l
            ~remote_share:m.Messages.ph_g_rj
            ~initiator_share:m.Messages.ph_g_rj ~responder_share:g_rl
        in
        Ok
          ( {
              Messages.pr_g_rj = g_rj_bytes;
              pr_g_rl = g_rl;
              pr_ts2 = ts2;
              pr_gsig = gsig;
            },
            {
              ppr_r_l = r_l;
              ppr_g_rj = g_rj_bytes;
              ppr_g_rl = g_rl_bytes;
              ppr_ts1 = m.Messages.ph_ts1;
              ppr_ts2 = ts2;
              ppr_session = session;
            } )
    end
  end

let process_peer_response t pending (m : Messages.peer_response) =
  let params = t.config.Config.pairing in
  let g_rj_bytes = G1.encode params pending.pp_g_rj in
  if not (String.equal m.Messages.pr_g_rj g_rj_bytes) then
    Error Protocol_error.Unknown_session
  else if
    abs (m.Messages.pr_ts2 - pending.pp_ts1) > t.config.Config.ts_window_ms
  then Error Protocol_error.Stale_timestamp
  else begin
    let g_rl_bytes = G1.encode params m.Messages.pr_g_rl in
    let transcript =
      Messages.auth_transcript_of_encodings m.Messages.pr_g_rj g_rl_bytes
        m.Messages.pr_ts2
    in
    match check_peer_signature t ~transcript m.Messages.pr_gsig with
    | Error e -> Error e
    | Ok () ->
      let session =
        Session.derive t.config ~role:Session.Initiator
          ~local_secret:pending.pp_r_j ~remote_share:m.Messages.pr_g_rl
          ~initiator_share:pending.pp_g_rj ~responder_share:m.Messages.pr_g_rl
      in
      (* (M̃.3): E_K(g^{r_j}, g^{r_l}, ts1, ts2) *)
      let w = Wire.writer () in
      Wire.bytes w g_rj_bytes;
      Wire.bytes w g_rl_bytes;
      Wire.u64 w pending.pp_ts1;
      Wire.u64 w m.Messages.pr_ts2;
      let payload = Session.seal session (Wire.contents w) in
      Ok
        ( { Messages.pc_g_rj = g_rj_bytes; pc_g_rl = g_rl_bytes; pc_payload = payload },
          session )
  end

let process_peer_confirm _t pending (m : Messages.peer_confirm) =
  if
    not
      (String.equal m.Messages.pc_g_rj pending.ppr_g_rj
      && String.equal m.Messages.pc_g_rl pending.ppr_g_rl)
  then Error Protocol_error.Unknown_session
  else begin
    match Session.open_ pending.ppr_session m.Messages.pc_payload with
    | None -> Error Protocol_error.Decryption_failed
    | Some plaintext -> begin
      let open Wire in
      let r = reader plaintext in
      match
        let* g_rj_bytes = read_bytes r in
        let* g_rl_bytes = read_bytes r in
        let* ts1 = read_u64 r in
        let* ts2 = read_u64 r in
        let* () = expect_end r in
        Ok (g_rj_bytes, g_rl_bytes, ts1, ts2)
      with
      | Error reason -> Error (Protocol_error.Malformed reason)
      | Ok (g_rj_bytes, g_rl_bytes, ts1, ts2) ->
        if
          g_rj_bytes <> pending.ppr_g_rj
          || g_rl_bytes <> pending.ppr_g_rl
          || ts1 <> pending.ppr_ts1 || ts2 <> pending.ppr_ts2
        then Error Protocol_error.Decryption_failed
        else Ok pending.ppr_session
    end
  end

let learn_lists t crl url =
  (match t.crl with
  | Some known when known.Cert.seq >= crl.Cert.seq -> ()
  | _ -> t.crl <- Some crl);
  match t.url with
  | Some known when known.Url.seq >= url.Url.seq -> ()
  | _ -> t.url <- Some url

let update_gpk t gpk =
  (* an epoch rotation invalidates all held keys until re-enrollment *)
  t.gpk <- gpk;
  Hashtbl.reset t.keys
