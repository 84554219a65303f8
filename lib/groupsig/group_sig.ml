open Peace_bigint
open Peace_hash
open Peace_pairing
module Trace = Peace_obs.Trace

type base_mode = Per_message | Fixed_bases

type gpk = {
  params : Params.t;
  g1 : G1.point;
  g2 : G1.point;
  w : G1.point;
  base_mode : base_mode;
  e_g1_g2 : Pairing.Gt.elt;
  fixed_u : G1.point;
  fixed_v : G1.point;
  g2_lines : Pairing.lines;
  w_lines : Pairing.lines;
}

type gsk = {
  a : G1.point;
  grp : Bigint.t;
  x : Bigint.t;
  e_a_g2 : Pairing.Gt.elt;
}

type issuer = { gpk : gpk; gamma : Bigint.t }
type revocation_token = G1.point

type signature = {
  r_nonce : string;
  t1 : G1.point;
  t2 : G1.point;
  c : Bigint.t;
  s_alpha : Bigint.t;
  s_x : Bigint.t;
  s_delta : Bigint.t;
}

type verify_result = Valid | Invalid_proof | Revoked

let equal_verify_result a b =
  match (a, b) with
  | Valid, Valid | Invalid_proof, Invalid_proof | Revoked, Revoked -> true
  | (Valid | Invalid_proof | Revoked), _ -> false

let pp_verify_result fmt = function
  | Valid -> Format.pp_print_string fmt "valid"
  | Invalid_proof -> Format.pp_print_string fmt "invalid-proof"
  | Revoked -> Format.pp_print_string fmt "revoked"

let scalar_width params = (Bigint.num_bits params.Params.q + 7) / 8

(* length-prefixed concatenation so hash inputs cannot be ambiguous *)
let frame parts =
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      let b = Bytes.create 4 in
      Bytes.set_int32_be b 0 (Int32.of_int (String.length s));
      Buffer.add_bytes buf b;
      Buffer.add_string buf s)
    parts;
  Buffer.contents buf

let gpk_bytes gpk =
  let params = gpk.params in
  frame
    [
      Bigint.to_bytes_be params.Params.p;
      Bigint.to_bytes_be params.Params.q;
      G1.encode params gpk.g1;
      G1.encode params gpk.g2;
      G1.encode params gpk.w;
    ]

(* H₀ of the paper: derive the signature bases (û, v̂) *)
let bases gpk ~msg ~r_nonce =
  match gpk.base_mode with
  | Fixed_bases -> (gpk.fixed_u, gpk.fixed_v)
  | Per_message ->
    let context = frame [ gpk_bytes gpk; msg; r_nonce ] in
    ( G1.hash_to_point gpk.params ("peace-h0-u" ^ context),
      G1.hash_to_point gpk.params ("peace-h0-v" ^ context) )

(* H of the paper: the Fiat-Shamir challenge, a scalar mod q *)
let challenge gpk ~msg ~r_nonce ~t1 ~t2 ~r1 ~r2 ~r3 =
  let params = gpk.params in
  let data =
    frame
      [
        "peace-challenge";
        gpk_bytes gpk;
        msg;
        r_nonce;
        G1.encode params t1;
        G1.encode params t2;
        G1.encode params r1;
        Pairing.Gt.encode params r2;
        G1.encode params r3;
      ]
  in
  (* widen past q to make the modular bias negligible *)
  let wide = Hmac.hkdf ~info:"peace-challenge-scalar" data (scalar_width params + 16) in
  Bigint.erem (Bigint.of_bytes_be wide) params.Params.q

(* The Miller lines of g2 and w are built with the key, once, and serve
   every pairing against them: e(g1, g2) here, e(A, g2) per key, and the
   signer's and verifier's pairings. All these points lie in G_q, where
   ê(P, Q) = ê(Q, P), so either argument may be the one with lines. *)
let make_gpk params ~g1 ~g2 ~w ~base_mode ~fixed_u ~fixed_v =
  let g2_lines = Pairing.lines_of params g2 in
  let e_g1_g2 = Pairing.tate_lines params [ (g2_lines, g1) ] in
  {
    params;
    g1;
    g2;
    w;
    base_mode;
    e_g1_g2;
    fixed_u;
    fixed_v;
    g2_lines;
    w_lines = Pairing.lines_of params w;
  }

(* e(A, g2) of a key, from g2's lines *)
let e_with_g2 gpk a = Pairing.tate_lines gpk.params [ (gpk.g2_lines, a) ]

let setup ?(base_mode = Per_message) params rng =
  let q = params.Params.q in
  let gamma = Bigint.random_range rng Bigint.one q in
  let g = G1.generator params in
  (* the paper draws g2 at random and sets g1 = ψ(g2); in the symmetric
     setting we take a random multiple of the subgroup generator *)
  let g2 = G1.mul params (Bigint.random_range rng Bigint.one q) g in
  let g1 = g2 in
  let w = G1.mul params gamma g2 in
  let fixed_u = G1.hash_to_point params ("peace-fixed-u" ^ G1.encode params g2) in
  let fixed_v = G1.hash_to_point params ("peace-fixed-v" ^ G1.encode params g2) in
  { gpk = make_gpk params ~g1 ~g2 ~w ~base_mode ~fixed_u ~fixed_v; gamma }

let issue_with_x issuer ~grp ~x =
  let params = issuer.gpk.params in
  let q = params.Params.q in
  let denom = Modular.add (Modular.add issuer.gamma grp q) x q in
  if Bigint.is_zero denom then None
  else begin
    let a = G1.mul params (Modular.invert denom q) issuer.gpk.g1 in
    Some { a; grp; x; e_a_g2 = e_with_g2 issuer.gpk a }
  end

let issue issuer ~grp rng =
  let q = issuer.gpk.params.Params.q in
  let rec draw () =
    let x = Bigint.random_range rng Bigint.one q in
    match issue_with_x issuer ~grp ~x with Some k -> k | None -> draw ()
  in
  draw ()

let token_of_gsk gsk = gsk.a

let key_is_valid_parts gpk ~a ~grp ~x =
  let params = gpk.params in
  let q = params.Params.q in
  let x_eff = Modular.add grp x q in
  (* e(A, w + (grp+x)·g2) = e(g1, g2) *)
  let rhs_arg = G1.add params gpk.w (G1.mul params x_eff gpk.g2) in
  Pairing.Gt.equal params (Pairing.tate params a rhs_arg) gpk.e_g1_g2

let assemble_gsk gpk ~a ~grp ~x =
  if key_is_valid_parts gpk ~a ~grp ~x then Some { a; grp; x; e_a_g2 = e_with_g2 gpk a }
  else None

let key_is_valid gpk gsk = key_is_valid_parts gpk ~a:gsk.a ~grp:gsk.grp ~x:gsk.x

let sign gpk gsk ~rng ~msg =
  Trace.with_span "groupsig.sign" @@ fun () ->
  let params = gpk.params in
  let q = params.Params.q in
  let r_nonce = rng (scalar_width params) in
  let u, v = bases gpk ~msg ~r_nonce in
  let alpha = Bigint.random_range rng Bigint.one q in
  let t1 = G1.mul params alpha u in
  let t2 = G1.add params gsk.a (G1.mul params alpha v) in
  let x_eff = Modular.add gsk.grp gsk.x q in
  let delta = Modular.mul x_eff alpha q in
  let r_alpha = Bigint.random_below rng q in
  let r_x = Bigint.random_below rng q in
  let r_delta = Bigint.random_below rng q in
  let r1 = G1.mul params r_alpha u in
  (* e(T2, g2) = e(A, g2)·e(v, g2)^α, with e(A, g2) precomputed per key;
     e(v, g2) and e(v, w) from the gpk's lines *)
  let e_v_g2 = Pairing.tate_lines params [ (gpk.g2_lines, v) ] in
  let e_v_w = Pairing.tate_lines params [ (gpk.w_lines, v) ] in
  let e_t2_g2 = Pairing.Gt.mul params gsk.e_a_g2 (Pairing.Gt.pow params e_v_g2 alpha) in
  let r2 =
    Pairing.Gt.mul params
      (Pairing.Gt.pow params e_t2_g2 r_x)
      (Pairing.Gt.mul params
         (Pairing.Gt.pow params e_v_w (Bigint.neg r_alpha))
         (Pairing.Gt.pow params e_v_g2 (Bigint.neg r_delta)))
  in
  let r3 = G1.mul2 params r_x t1 r_delta (G1.neg params u) in
  let c = challenge gpk ~msg ~r_nonce ~t1 ~t2 ~r1 ~r2 ~r3 in
  {
    r_nonce;
    t1;
    t2;
    c;
    s_alpha = Modular.add r_alpha (Modular.mul c alpha q) q;
    s_x = Modular.add r_x (Modular.mul c x_eff q) q;
    s_delta = Modular.add r_delta (Modular.mul c delta q) q;
  }

(* The proof check. Returns the bases (û, v̂) it derived when the proof
   holds, so a revocation scan or an open reuses them instead of hashing
   them again. Each two-term product is one [G1.mul2] chain. *)
let checked_bases gpk ~msg signature =
  Trace.with_span "groupsig.proof_check" @@ fun () ->
  let params = gpk.params in
  let q = params.Params.q in
  let { r_nonce; t1; t2; c; s_alpha; s_x; s_delta } = signature in
  let well_formed =
    String.length r_nonce = scalar_width params
    && G1.on_curve params t1 && G1.on_curve params t2
    && (not (G1.is_infinity t1))
    && Bigint.compare c q < 0 && Bigint.sign c >= 0
    && Bigint.compare s_alpha q < 0 && Bigint.compare s_x q < 0
    && Bigint.compare s_delta q < 0
  in
  if not well_formed then None
  else begin
    let u, v = bases gpk ~msg ~r_nonce in
    (* R̃1 = s_α·u − c·T1 *)
    let r1 = G1.mul2 params s_alpha u c (G1.neg params t1) in
    (* R̃2 = e(T2, s_x·g2 + c·w) · e(v, −s_α·w − s_δ·g2) · e(g1,g2)^{−c},
       regrouped by bilinearity around the two fixed arguments:
       ê(g2, s_x·T2 − s_δ·v) · ê(w, c·T2 − s_α·v) · e(g1,g2)^{−c}. The
       regrouping needs ê symmetric on T2, which holds because T2 ∈ G_q *)
    let neg_v = G1.neg params v in
    let r2 =
      Pairing.Gt.mul params
        (Pairing.tate_lines params
           [
             (gpk.g2_lines, G1.mul2 params s_x t2 s_delta neg_v);
             (gpk.w_lines, G1.mul2 params c t2 s_alpha neg_v);
           ])
        (Pairing.Gt.pow params gpk.e_g1_g2 (Bigint.neg c))
    in
    (* R̃3 = s_x·T1 − s_δ·u *)
    let r3 = G1.mul2 params s_x t1 s_delta (G1.neg params u) in
    if Bigint.equal c (challenge gpk ~msg ~r_nonce ~t1 ~t2 ~r1 ~r2 ~r3) then
      Some (u, v)
    else None
  end

(* The VLR scan: the tag of the first token A encoded in (T1, T2), by
   Eq. 3, e(T2 − A, û) = e(T1, v̂). û's lines and e(T1, v̂) once, every
   T2 − A in one batched addition, then one inversion-free line test per
   token (T2 − A ∈ G_q, where ê is symmetric). *)
let find_signer gpk ~u ~v signature tagged =
  let params = gpk.params in
  let u_lines = Pairing.lines_of params u in
  let e_t1_v = Pairing.tate params signature.t1 v in
  let tagged = Array.of_list tagged in
  let differences =
    G1.add_batch params signature.t2
      (Array.map (fun (token, _) -> G1.neg params token) tagged)
  in
  let rec scan k =
    if k = Array.length tagged then None
    else if Pairing.lines_equal params u_lines differences.(k) e_t1_v then
      Some (snd tagged.(k))
    else scan (k + 1)
  in
  scan 0

let is_signer gpk ~msg signature token =
  let u, v = bases gpk ~msg ~r_nonce:signature.r_nonce in
  Option.is_some (find_signer gpk ~u ~v signature [ (token, ()) ])

let verify gpk ?(url = []) ~msg signature =
  Trace.with_span "groupsig.verify"
    ~attrs:[ ("url", string_of_int (List.length url)) ]
  @@ fun () ->
  match checked_bases gpk ~msg signature with
  | None -> Invalid_proof
  | Some _ when url = [] -> Valid
  | Some (u, v) ->
    let tagged = List.map (fun token -> (token, ())) url in
    if Option.is_some (find_signer gpk ~u ~v signature tagged) then Revoked else Valid

type fast_table = (string, unit) Hashtbl.t

let build_fast_table gpk tokens =
  if gpk.base_mode <> Fixed_bases then
    invalid_arg "Group_sig.build_fast_table: gpk must use Fixed_bases";
  let params = gpk.params in
  let table = Hashtbl.create (List.length tokens * 2) in
  let u_lines = Pairing.lines_of params gpk.fixed_u in
  List.iter
    (fun token ->
      let e_a_u = Pairing.tate_lines params [ (u_lines, token) ] in
      Hashtbl.replace table (Pairing.Gt.encode params e_a_u) ())
    tokens;
  table

let fast_table_size = Hashtbl.length

let verify_fast gpk table ~msg signature =
  if gpk.base_mode <> Fixed_bases then
    invalid_arg "Group_sig.verify_fast: gpk must use Fixed_bases";
  Trace.with_span "groupsig.verify_fast" @@ fun () ->
  if Option.is_none (checked_bases gpk ~msg signature) then Invalid_proof
  else begin
    let params = gpk.params in
    (* revoked iff e(A, û) = e(T2, û) / e(T1, v̂) for some table entry *)
    let d =
      Pairing.Gt.mul params
        (Pairing.tate params signature.t2 gpk.fixed_u)
        (Pairing.Gt.inv params (Pairing.tate params signature.t1 gpk.fixed_v))
    in
    if Hashtbl.mem table (Pairing.Gt.encode params d) then Revoked else Valid
  end

let open_signature gpk ~grt ~msg signature =
  Trace.with_span "groupsig.open" @@ fun () ->
  match checked_bases gpk ~msg signature with
  | None -> None
  | Some (u, v) -> find_signer gpk ~u ~v signature grt

(* ------------------------------------------------------------------ *)
(* Serialisation                                                       *)
(* ------------------------------------------------------------------ *)

let signature_size gpk =
  let params = gpk.params in
  (5 * scalar_width params) + (2 * Params.group_element_bytes params)

let paper_signature_bits = 1192

let signature_to_bytes gpk s =
  let params = gpk.params in
  let width = scalar_width params in
  String.concat ""
    [
      s.r_nonce;
      G1.encode params s.t1;
      G1.encode params s.t2;
      Bigint.to_bytes_be ~width s.c;
      Bigint.to_bytes_be ~width s.s_alpha;
      Bigint.to_bytes_be ~width s.s_x;
      Bigint.to_bytes_be ~width s.s_delta;
    ]

let signature_of_bytes gpk bytes =
  let params = gpk.params in
  let width = scalar_width params in
  let point_width = Params.group_element_bytes params in
  if String.length bytes <> signature_size gpk then None
  else begin
    let pos = ref 0 in
    let take n =
      let s = String.sub bytes !pos n in
      pos := !pos + n;
      s
    in
    let r_nonce = take width in
    let t1_bytes = take point_width in
    let t2_bytes = take point_width in
    let c = Bigint.of_bytes_be (take width) in
    let s_alpha = Bigint.of_bytes_be (take width) in
    let s_x = Bigint.of_bytes_be (take width) in
    let s_delta = Bigint.of_bytes_be (take width) in
    match G1.decode params t1_bytes with
    | None -> None
    | Some t1 -> (
      match G1.decode params t2_bytes with
      | Some t2 -> Some { r_nonce; t1; t2; c; s_alpha; s_x; s_delta }
      | None -> None)
  end

(* --- textual key storage for the CLI --- *)

(* hex of the compressed encoding *)
let point_hex params pt = Sha256.to_hex (G1.encode params pt)
let point_of_hex params hex = Option.bind (Sha256.of_hex hex) (G1.decode params)

let gpk_to_text gpk =
  let params = gpk.params in
  String.concat "\n"
    [
      "peace-gpk-v1";
      (match gpk.base_mode with Per_message -> "per-message" | Fixed_bases -> "fixed-bases");
      Params.to_text params |> String.trim |> String.map (fun c -> if c = '\n' then '|' else c);
      point_hex params gpk.g1;
      point_hex params gpk.g2;
      point_hex params gpk.w;
      point_hex params gpk.fixed_u;
      point_hex params gpk.fixed_v;
    ]
  ^ "\n"

let gpk_of_text text =
  match String.split_on_char '\n' (String.trim text) with
  | [ "peace-gpk-v1"; mode; params_line; g1h; g2h; wh; uh; vh ] -> begin
    let params_text = String.map (fun c -> if c = '|' then '\n' else c) params_line in
    match Params.of_text params_text with
    | Error reason -> Error ("bad parameters: " ^ reason)
    | Ok params -> begin
      let base_mode =
        match mode with
        | "fixed-bases" -> Some Fixed_bases
        | "per-message" -> Some Per_message
        | _ -> None
      in
      match
        ( base_mode,
          point_of_hex params g1h,
          point_of_hex params g2h,
          point_of_hex params wh,
          point_of_hex params uh,
          point_of_hex params vh )
      with
      | Some base_mode, Some g1, Some g2, Some w, Some fixed_u, Some fixed_v ->
        Ok (make_gpk params ~g1 ~g2 ~w ~base_mode ~fixed_u ~fixed_v)
      | _ -> Error "bad group public key encoding"
    end
  end
  | _ -> Error "unrecognised gpk file"

let issuer_to_text issuer =
  "peace-issuer-v1\n" ^ Bigint.to_hex issuer.gamma ^ "\n"
  ^ gpk_to_text issuer.gpk

let issuer_of_text text =
  match String.index_opt text '\n' with
  | None -> Error "unrecognised issuer file"
  | Some first_nl -> begin
    if String.sub text 0 first_nl <> "peace-issuer-v1" then
      Error "unrecognised issuer file"
    else begin
      let rest = String.sub text (first_nl + 1) (String.length text - first_nl - 1) in
      match String.index_opt rest '\n' with
      | None -> Error "unrecognised issuer file"
      | Some nl -> begin
        match Bigint.of_hex (String.sub rest 0 nl) with
        | gamma -> begin
          match gpk_of_text (String.sub rest (nl + 1) (String.length rest - nl - 1)) with
          | Ok gpk -> Ok { gpk; gamma }
          | Error _ as e -> e
        end
        | exception Invalid_argument reason -> Error reason
      end
    end
  end

let gsk_to_text gpk gsk =
  String.concat "\n"
    [
      "peace-gsk-v1";
      point_hex gpk.params gsk.a;
      Bigint.to_hex gsk.grp;
      Bigint.to_hex gsk.x;
    ]
  ^ "\n"

let gsk_of_text gpk text =
  match String.split_on_char '\n' (String.trim text) with
  | [ "peace-gsk-v1"; ah; grph; xh ] -> begin
    match (point_of_hex gpk.params ah, Bigint.of_hex grph, Bigint.of_hex xh) with
    | Some a, grp, x -> begin
      match assemble_gsk gpk ~a ~grp ~x with
      | Some gsk -> Ok gsk
      | None -> Error "key fails the SDH validity check"
    end
    | None, _, _ -> Error "bad A component"
    | exception Invalid_argument reason -> Error reason
  end
  | _ -> Error "unrecognised gsk file"

let token_to_text gpk token = point_hex gpk.params token ^ "\n"

let token_of_text gpk text =
  match point_of_hex gpk.params (String.trim text) with
  | Some token -> Ok token
  | None -> Error "bad revocation token encoding"
