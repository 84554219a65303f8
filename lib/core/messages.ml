open Peace_pairing
open Peace_groupsig

type beacon = {
  router_id : int;
  g : G1.point;
  g_rr : G1.point;
  ts1 : int;
  puzzle : Puzzle.t option;
  beacon_sig : Peace_ec.Ecdsa.signature;
  cert : Cert.t;
  crl : Cert.crl;
  url : Url.t;
}

type access_request = {
  g_rj : G1.point;
  ar_g_rr : G1.point;
  ts2 : int;
  gsig : Group_sig.signature;
  puzzle_solution : string option;
}

type access_frame = {
  af_g_rj : string;
  af_g_rr : string;
  af_ts2 : int;
  af_gsig : string;
  af_puzzle_solution : string option;
}

type access_confirm = {
  ac_g_rj : string;
  ac_g_rr : string;
  payload : string;
}

type peer_hello = {
  ph_g : G1.point;
  ph_g_rj : G1.point;
  ph_ts1 : int;
  ph_gsig : Group_sig.signature;
}

type peer_response = {
  pr_g_rj : string;
  pr_g_rl : G1.point;
  pr_ts2 : int;
  pr_gsig : Group_sig.signature;
}

type peer_confirm = {
  pc_g_rj : string;
  pc_g_rl : string;
  pc_payload : string;
}

let point_bytes config pt = G1.encode config.Config.pairing pt

(* Decoders take a frame's components one at a time, cheapest first: the
   fixed-size fields and ECDSA encodings, then the pairing points (a
   square root and a subgroup check each), then the URL. The first
   component that fails stops the rest. An echoed share is only
   length-checked: its receiver compares it with the encoding of the
   share it holds, and the encoding is canonical. *)
let component what = function Some v -> Ok v | None -> Error what
let point_of config what s = component what (G1.decode config.Config.pairing s)

let encoding_of config what s =
  if String.length s = Params.group_element_bytes config.Config.pairing then Ok s
  else Error what

let auth_transcript_of_encodings a b ts =
  let w = Wire.writer () in
  Wire.raw w "peace-auth-v1";
  Wire.bytes w a;
  Wire.bytes w b;
  Wire.u64 w ts;
  Wire.contents w

let auth_transcript config a b ts =
  auth_transcript_of_encodings (point_bytes config a) (point_bytes config b) ts

let opt_puzzle_bytes = function None -> "" | Some p -> Puzzle.to_bytes p

let beacon_signed_payload config b =
  let w = Wire.writer () in
  Wire.raw w "peace-beacon-v1";
  Wire.u32 w b.router_id;
  Wire.bytes w (point_bytes config b.g);
  Wire.bytes w (point_bytes config b.g_rr);
  Wire.u64 w b.ts1;
  Wire.bytes w (opt_puzzle_bytes b.puzzle);
  Wire.contents w

(* --- serialisation --- *)

let beacon_to_bytes config b =
  let w = Wire.writer () in
  Wire.u32 w b.router_id;
  Wire.bytes w (point_bytes config b.g);
  Wire.bytes w (point_bytes config b.g_rr);
  Wire.u64 w b.ts1;
  Wire.bytes w (opt_puzzle_bytes b.puzzle);
  Wire.bytes w (Peace_ec.Ecdsa.signature_to_bytes config.Config.curve b.beacon_sig);
  Wire.bytes w (Cert.to_bytes config b.cert);
  Wire.bytes w (Cert.crl_to_bytes config b.crl);
  Wire.bytes w (Url.to_bytes config b.url);
  Wire.contents w

let decode_beacon config s =
  let open Wire in
  let r = reader s in
  match
    let* router_id = read_u32 r in
    let* g_bytes = read_bytes r in
    let* g_rr_bytes = read_bytes r in
    let* ts1 = read_u64 r in
    let* puzzle_bytes = read_bytes r in
    let* sig_bytes = read_bytes r in
    let* cert_bytes = read_bytes r in
    let* crl_bytes = read_bytes r in
    let* url_bytes = read_bytes r in
    let* () = expect_end r in
    let puzzle =
      if puzzle_bytes = "" then Ok None
      else
        match Puzzle.of_bytes puzzle_bytes with
        | Some p -> Ok (Some p)
        | None -> Error "beacon: bad puzzle"
    in
    let* puzzle = puzzle in
    let bad = "beacon: bad component" in
    let* beacon_sig =
      component bad (Peace_ec.Ecdsa.signature_of_bytes config.Config.curve sig_bytes)
    in
    let* crl = component bad (Cert.crl_of_bytes config crl_bytes) in
    let* cert = component bad (Cert.of_bytes config cert_bytes) in
    let* g = point_of config bad g_bytes in
    let* g_rr = point_of config bad g_rr_bytes in
    let* url = component bad (Url.of_bytes config url_bytes) in
    Ok { router_id; g; g_rr; ts1; puzzle; beacon_sig; cert; crl; url }
  with
  | Ok b -> Some b
  | Error _ -> None

(* a router re-sends one beacon per period, so a member fetches the same
   bytes again and again: the kept decode spares it both points and the
   URL *)
let beacon_of_bytes = Kept.decoder decode_beacon

let access_request_to_bytes config gpk m =
  let w = Wire.writer () in
  Wire.bytes w (point_bytes config m.g_rj);
  Wire.bytes w (point_bytes config m.ar_g_rr);
  Wire.u64 w m.ts2;
  Wire.bytes w (Group_sig.signature_to_bytes gpk m.gsig);
  Wire.bytes w (match m.puzzle_solution with None -> "" | Some s -> s);
  Wire.contents w

(* the framing stage: every field read and its length checked, the
   signature's against the gpk's signature size; no point decoded *)
let access_frame_of_bytes config gpk s =
  let open Wire in
  let r = reader s in
  match
    let* g_rj_bytes = read_bytes r in
    let* g_rr_bytes = read_bytes r in
    let* af_ts2 = read_u64 r in
    let* af_gsig = read_bytes r in
    let* sol = read_bytes r in
    let* () = expect_end r in
    let bad = "access_request: bad component" in
    let* af_g_rj = encoding_of config bad g_rj_bytes in
    let* af_g_rr = encoding_of config bad g_rr_bytes in
    if String.length af_gsig <> Group_sig.signature_size gpk then Error bad
    else
      Ok
        {
          af_g_rj;
          af_g_rr;
          af_ts2;
          af_gsig;
          af_puzzle_solution = (if sol = "" then None else Some sol);
        }
  with
  | Ok f -> Some f
  | Error _ -> None

(* the point stage: g_rj, then T1 and T2, each with its subgroup check *)
let access_request_of_frame config gpk ~g_rr f =
  match G1.decode config.Config.pairing f.af_g_rj with
  | None -> None
  | Some g_rj -> (
    match Group_sig.signature_of_bytes gpk f.af_gsig with
    | None -> None
    | Some gsig ->
      Some
        {
          g_rj;
          ar_g_rr = g_rr;
          ts2 = f.af_ts2;
          gsig;
          puzzle_solution = f.af_puzzle_solution;
        })

let access_request_of_bytes config gpk s =
  match access_frame_of_bytes config gpk s with
  | None -> None
  | Some f -> (
    match G1.decode config.Config.pairing f.af_g_rr with
    | None -> None
    | Some g_rr -> access_request_of_frame config gpk ~g_rr f)

let access_confirm_to_bytes _config m =
  let w = Wire.writer () in
  Wire.bytes w m.ac_g_rj;
  Wire.bytes w m.ac_g_rr;
  Wire.bytes w m.payload;
  Wire.contents w

let access_confirm_of_bytes config s =
  let open Wire in
  let r = reader s in
  match
    let* g_rj_bytes = read_bytes r in
    let* g_rr_bytes = read_bytes r in
    let* payload = read_bytes r in
    let* () = expect_end r in
    let bad = "access_confirm: bad share" in
    let* ac_g_rj = encoding_of config bad g_rj_bytes in
    let* ac_g_rr = encoding_of config bad g_rr_bytes in
    Ok { ac_g_rj; ac_g_rr; payload }
  with
  | Ok m -> Some m
  | Error _ -> None

let peer_hello_to_bytes config gpk m =
  let w = Wire.writer () in
  Wire.bytes w (point_bytes config m.ph_g);
  Wire.bytes w (point_bytes config m.ph_g_rj);
  Wire.u64 w m.ph_ts1;
  Wire.bytes w (Group_sig.signature_to_bytes gpk m.ph_gsig);
  Wire.contents w

let peer_hello_of_bytes config gpk s =
  let open Wire in
  let r = reader s in
  match
    let* g_bytes = read_bytes r in
    let* g_rj_bytes = read_bytes r in
    let* ph_ts1 = read_u64 r in
    let* gsig_bytes = read_bytes r in
    let* () = expect_end r in
    let bad = "peer_hello: bad component" in
    let* ph_g = point_of config bad g_bytes in
    let* ph_g_rj = point_of config bad g_rj_bytes in
    let* ph_gsig = component bad (Group_sig.signature_of_bytes gpk gsig_bytes) in
    Ok { ph_g; ph_g_rj; ph_ts1; ph_gsig }
  with
  | Ok m -> Some m
  | Error _ -> None

let peer_response_to_bytes config gpk m =
  let w = Wire.writer () in
  Wire.bytes w m.pr_g_rj;
  Wire.bytes w (point_bytes config m.pr_g_rl);
  Wire.u64 w m.pr_ts2;
  Wire.bytes w (Group_sig.signature_to_bytes gpk m.pr_gsig);
  Wire.contents w

let peer_response_of_bytes config gpk s =
  let open Wire in
  let r = reader s in
  match
    let* g_rj_bytes = read_bytes r in
    let* g_rl_bytes = read_bytes r in
    let* pr_ts2 = read_u64 r in
    let* gsig_bytes = read_bytes r in
    let* () = expect_end r in
    let bad = "peer_response: bad component" in
    let* pr_g_rj = encoding_of config bad g_rj_bytes in
    let* pr_g_rl = point_of config bad g_rl_bytes in
    let* pr_gsig = component bad (Group_sig.signature_of_bytes gpk gsig_bytes) in
    Ok { pr_g_rj; pr_g_rl; pr_ts2; pr_gsig }
  with
  | Ok m -> Some m
  | Error _ -> None

let peer_confirm_to_bytes _config m =
  let w = Wire.writer () in
  Wire.bytes w m.pc_g_rj;
  Wire.bytes w m.pc_g_rl;
  Wire.bytes w m.pc_payload;
  Wire.contents w

let peer_confirm_of_bytes config s =
  let open Wire in
  let r = reader s in
  match
    let* g_rj_bytes = read_bytes r in
    let* g_rl_bytes = read_bytes r in
    let* pc_payload = read_bytes r in
    let* () = expect_end r in
    let bad = "peer_confirm: bad share" in
    let* pc_g_rj = encoding_of config bad g_rj_bytes in
    let* pc_g_rl = encoding_of config bad g_rl_bytes in
    Ok { pc_g_rj; pc_g_rl; pc_payload }
  with
  | Ok m -> Some m
  | Error _ -> None
