open Peace_bigint
open Peace_ec
open Peace_pairing
open Peace_groupsig
module Obs = Peace_obs.Registry
module Audit = Peace_obs.Audit
module Sha256 = Peace_hash.Sha256

(* per-request observability: phase latencies of (M.2) handling and the
   length of the revocation scan each verification pays for; the
   groupsig.verify span times the verification itself *)
let c_requests = Obs.counter "router.requests_total"
let h_precheck = Obs.histogram "router.precheck_ns"
let h_finalize = Obs.histogram "router.finalize_ns"
let h_url_scan = Obs.histogram "router.url_scan_len"

let audit_reject router_id err =
  let code = Protocol_error.wire_code err in
  Audit.emit ~kind:"access_reject"
    [
      ("router", string_of_int router_id);
      ("code", string_of_int code);
      ("reason", Protocol_error.code_name code);
    ]

type outstanding_beacon = {
  ob_g : G1.point;
  ob_g_rr : G1.point;
  ob_r_r : Bigint.t;
  ob_ts : int;
  ob_puzzle : Puzzle.t option;
}

type t = {
  config : Config.t;
  router_id : int;
  keypair : Ecdsa.keypair;
  mutable gpk : Group_sig.gpk;
  operator_public : Curve.point;
  rng : int -> string;
  mutable cert : Cert.t option;
  mutable crl : Cert.crl option;
  mutable url : Url.t option;
  mutable puzzle_difficulty : int option;
  outstanding : (string, outstanding_beacon) Hashtbl.t; (* by g_rr encoding *)
  seen_requests : (string, int) Hashtbl.t; (* transcript hash -> ts (replay cache) *)
  mutable verifications : int;
  mutable cheap_rejections : int;
  mutable resend_cache : bool; (* idempotent duplicate-(M.2) handling *)
  completed : (string, int * Messages.access_confirm * Session.t) Hashtbl.t;
      (* transcript hash -> (ts, confirm, session): replays of an
         already-answered (M.2) get the cached (M.3) back, no re-verify *)
  mutable resends : int;
}

let create config ~router_id ~gpk ~operator_public ~rng =
  {
    config;
    router_id;
    keypair = Ecdsa.generate config.Config.curve rng;
    gpk;
    operator_public;
    rng;
    cert = None;
    crl = None;
    url = None;
    puzzle_difficulty = None;
    outstanding = Hashtbl.create 32;
    seen_requests = Hashtbl.create 64;
    verifications = 0;
    cheap_rejections = 0;
    resend_cache = false;
    completed = Hashtbl.create 64;
    resends = 0;
  }

let router_id t = t.router_id
let public_key t = t.keypair.Ecdsa.q
let install_cert t cert = t.cert <- Some cert

let update_lists t crl url =
  t.crl <- Some crl;
  t.url <- Some url

let set_under_attack t ~difficulty = t.puzzle_difficulty <- Some difficulty
let clear_under_attack t = t.puzzle_difficulty <- None
let under_attack t = t.puzzle_difficulty <> None

let now t = Clock.now t.config.Config.clock

let max_outstanding = 512

(* keep the pending-handshake table bounded: beyond [max_outstanding]
   entries the oldest beacons are evicted first, so a beacon flood (or a
   long-lived router under churn) cannot grow state without limit *)
let enforce_outstanding_bound t =
  let excess = Hashtbl.length t.outstanding - max_outstanding in
  if excess > 0 then begin
    let entries =
      Hashtbl.fold (fun key ob acc -> (ob.ob_ts, key) :: acc) t.outstanding []
    in
    List.sort compare entries
    |> List.filteri (fun i _ -> i < excess)
    |> List.iter (fun (_, key) -> Hashtbl.remove t.outstanding key)
  end

let gc_outstanding t =
  (* drop beacons, replay-cache and resend-cache entries past the
     acceptance window; entries therefore expire even without pressure *)
  let cutoff = now t - (2 * t.config.Config.ts_window_ms) in
  let stale =
    Hashtbl.fold
      (fun key ob acc -> if ob.ob_ts < cutoff then key :: acc else acc)
      t.outstanding []
  in
  List.iter (Hashtbl.remove t.outstanding) stale;
  let stale_seen =
    Hashtbl.fold
      (fun key ts acc -> if ts < cutoff then key :: acc else acc)
      t.seen_requests []
  in
  List.iter (Hashtbl.remove t.seen_requests) stale_seen;
  let stale_completed =
    Hashtbl.fold
      (fun key (ts, _, _) acc -> if ts < cutoff then key :: acc else acc)
      t.completed []
  in
  List.iter (Hashtbl.remove t.completed) stale_completed;
  enforce_outstanding_bound t

let beacon t =
  let cert =
    match t.cert with
    | Some c -> c
    | None -> invalid_arg "Mesh_router.beacon: no certificate installed"
  in
  let crl, url =
    match (t.crl, t.url) with
    | Some crl, Some url -> (crl, url)
    | _ -> invalid_arg "Mesh_router.beacon: revocation lists not installed"
  in
  gc_outstanding t;
  let params = t.config.Config.pairing in
  let q = params.Params.q in
  (* fresh generator g and share g^{r_R} *)
  let g = G1.mul params (Bigint.random_range t.rng Bigint.one q) (G1.generator params) in
  let r_r = Bigint.random_range t.rng Bigint.one q in
  let g_rr = G1.mul params r_r g in
  let ts1 = now t in
  let puzzle =
    match t.puzzle_difficulty with
    | None -> None
    | Some difficulty -> Some (Puzzle.make ~rng:t.rng ~difficulty)
  in
  (* the signed payload leaves the signature out, so a placeholder stands
     in for it until the one signature is made *)
  let unsigned =
    {
      Messages.router_id = t.router_id;
      g;
      g_rr;
      ts1;
      puzzle;
      beacon_sig = { Ecdsa.r = Bigint.zero; s = Bigint.zero };
      cert;
      crl;
      url;
    }
  in
  let payload = Messages.beacon_signed_payload t.config unsigned in
  let signed =
    { unsigned with Messages.beacon_sig = Ecdsa.sign t.config.Config.curve ~key:t.keypair payload }
  in
  Hashtbl.replace t.outstanding
    (G1.encode params g_rr)
    { ob_g = g; ob_g_rr = g_rr; ob_r_r = r_r; ob_ts = ts1; ob_puzzle = puzzle };
  enforce_outstanding_bound t;
  signed

let cheap_reject t err =
  t.cheap_rejections <- t.cheap_rejections + 1;
  audit_reject t.router_id err;
  err

(* the three-phase split of (M.2) handling, exposed so a caller that
   serialises router state behind a lock (the live Authority server) can
   run the expensive signature check outside it: [access_precheck] and
   [access_finish] touch router state and must be called under the
   caller's lock; the verification between them only needs the immutable
   transcript, gpk and URL snapshot. *)

type access_ticket = {
  at_beacon : outstanding_beacon;
  at_transcript : string;
}

let url_tokens t = match t.url with Some u -> Url.tokens u | None -> []

(* the pre-verification half, on the shares' encodings: cheap checks
   (freshness, matching beacon, replay cache, puzzle), then replay-cache
   insertion. [`Verify] carries everything the signature check and the
   finalisation need; [`Resend] is the idempotent replay of an
   already-answered (M.2), only when the resend cache is enabled. *)
let precheck t ~g_rj ~g_rr ~ts2 ~puzzle_solution =
  Obs.Counter.incr c_requests;
  Obs.Histogram.time h_precheck @@ fun () ->
  let t_now = now t in
  (* cheap checks first: freshness, matching beacon, puzzle *)
  if abs (t_now - ts2) > t.config.Config.ts_window_ms then
    `Reject (cheap_reject t Protocol_error.Stale_timestamp)
  else begin
    match Hashtbl.find_opt t.outstanding g_rr with
    | None -> `Reject (cheap_reject t Protocol_error.Unknown_session)
    | Some ob ->
      let transcript = Messages.auth_transcript_of_encodings g_rj g_rr ts2 in
      (* replay cache: an (M.2) transcript may be processed only once.
         With the resend cache on, a duplicate of a request we already
         answered gets the cached (M.3) back (a lost confirm is then
         recoverable by retransmission); anything else replayed is
         rejected exactly as before. *)
      let fingerprint = Sha256.digest transcript in
      if Hashtbl.mem t.seen_requests fingerprint then begin
        match
          if t.resend_cache then Hashtbl.find_opt t.completed fingerprint
          else None
        with
        | Some (_, confirm, session) ->
          t.resends <- t.resends + 1;
          `Resend (confirm, session)
        | None -> `Reject (cheap_reject t Protocol_error.Stale_timestamp)
      end
      else begin
        let pass () =
          (* only requests that reach verification enter the replay cache,
             so a cheap rejection (missing puzzle solution, say) can be
             retried *)
          Hashtbl.replace t.seen_requests fingerprint ts2;
          let url = url_tokens t in
          Obs.Histogram.observe h_url_scan (List.length url);
          `Verify ({ at_beacon = ob; at_transcript = transcript }, transcript, url)
        in
        match ob.ob_puzzle with
        | Some puzzle when t.puzzle_difficulty <> None -> begin
          match puzzle_solution with
          | None -> `Reject (cheap_reject t Protocol_error.Puzzle_required)
          | Some solution ->
            if not (Puzzle.check puzzle solution) then
              `Reject (cheap_reject t Protocol_error.Bad_puzzle_solution)
            else pass ()
        end
        | _ -> pass ()
      end
  end

(* a decoded request is checked through its points' encodings *)
let access_precheck t (m : Messages.access_request) =
  let params = t.config.Config.pairing in
  precheck t ~g_rj:(G1.encode params m.Messages.g_rj)
    ~g_rr:(G1.encode params m.Messages.ar_g_rr) ~ts2:m.Messages.ts2
    ~puzzle_solution:m.Messages.puzzle_solution

let access_precheck_frame t (f : Messages.access_frame) =
  precheck t ~g_rj:f.Messages.af_g_rj ~g_rr:f.Messages.af_g_rr
    ~ts2:f.Messages.af_ts2 ~puzzle_solution:f.Messages.af_puzzle_solution

let access_points t gpk ticket f =
  Messages.access_request_of_frame t.config gpk ~g_rr:ticket.at_beacon.ob_g_rr f

(* the post-verification half: key agreement, the ledger's accept record,
   (M.3) *)
let finalize t (m : Messages.access_request) ob transcript =
  let params = t.config.Config.pairing in
  let session =
    Session.derive t.config ~role:Session.Responder ~local_secret:ob.ob_r_r
      ~remote_share:m.Messages.g_rj ~initiator_share:m.Messages.g_rj
      ~responder_share:ob.ob_g_rr
  in
  (* (M.3): E_K(MR_k, g^{r_j}, g^{r_R}), and both shares echoed *)
  let g_rj = G1.encode params m.Messages.g_rj in
  let g_rr = G1.encode params ob.ob_g_rr in
  let w = Wire.writer () in
  Wire.u32 w t.router_id;
  Wire.bytes w g_rj;
  Wire.bytes w g_rr;
  let payload = Session.seal session (Wire.contents w) in
  let confirm = { Messages.ac_g_rj = g_rj; ac_g_rr = g_rr; payload } in
  if t.resend_cache then
    Hashtbl.replace t.completed
      (Sha256.digest transcript)
      (m.Messages.ts2, confirm, session);
  (* the only record of an accepted session: what the §IV-D audit opens,
     read back by [accepted_sessions] *)
  Audit.emit ~kind:"access_accept"
    [
      ("router", string_of_int t.router_id);
      ("session", Session.id session);
      ("ts2", string_of_int m.Messages.ts2);
      ("transcript", Sha256.to_hex transcript);
      ("gsig", Sha256.to_hex (Group_sig.signature_to_bytes t.gpk m.Messages.gsig));
    ];
  Ok (confirm, session)

let accepted_sessions gpk ledger =
  let ( let* ) = Option.bind in
  let* report =
    Result.to_option
      (Audit.verify ~verify_sig:Network_operator.verify_audit_sig
         ~require_seal:false ledger)
  in
  let index = Hashtbl.create 64 in
  List.iter
    (fun (kind, attrs) ->
      let hex key = Option.bind (List.assoc_opt key attrs) Sha256.of_hex in
      match (kind, List.assoc_opt "session" attrs, hex "transcript", hex "gsig") with
      | "access_accept", Some id, Some transcript, Some gsig ->
        Hashtbl.replace index id (transcript, gsig)
      | _ -> ())
    report.Audit.vr_walked;
  Some
    (fun session_id ->
      let* transcript, gsig = Hashtbl.find_opt index session_id in
      let* signature = Group_sig.signature_of_bytes gpk gsig in
      Some (transcript, signature))

(* a verdict means a signature was verified: the count is taken here, so a
   request that passed the precheck but whose points did not decode is
   not counted *)
let access_finish t (m : Messages.access_request) ticket verdict =
  Obs.Histogram.time h_finalize @@ fun () ->
  t.verifications <- t.verifications + 1;
  match verdict with
  | Group_sig.Invalid_proof ->
    audit_reject t.router_id Protocol_error.Invalid_group_signature;
    Error Protocol_error.Invalid_group_signature
  | Group_sig.Revoked ->
    audit_reject t.router_id Protocol_error.User_revoked;
    Error Protocol_error.User_revoked
  | Group_sig.Valid -> finalize t m ticket.at_beacon ticket.at_transcript

let current_gpk t = t.gpk

let handle_access_request t (m : Messages.access_request) =
  match access_precheck t m with
  | `Reject err -> Error err
  | `Resend (confirm, session) -> Ok (confirm, session)
  | `Verify (ticket, transcript, url) ->
    Group_sig.verify t.gpk ~url ~msg:transcript m.Messages.gsig
    |> access_finish t m ticket

let verifications_performed t = t.verifications
let requests_rejected_cheaply t = t.cheap_rejections
let enable_resend_cache t = t.resend_cache <- true
let confirms_resent t = t.resends
let outstanding_count t = Hashtbl.length t.outstanding

let update_gpk t gpk = t.gpk <- gpk
