open Peace_bigint
open Peace_hash
open Peace_pairing

type gpk = {
  params : Params.t;
  g1 : G1.point;
  g2 : G1.point;
  h : G1.point;
  h_lines : Pairing.lines;
  u : G1.point;
  v : G1.point;
  w : G1.point;
  e_g1_g2 : Pairing.Gt.elt;
  e_h_w : Pairing.Gt.elt;
  e_h_g2 : Pairing.Gt.elt;
}

type opener = { xi1 : Bigint.t; xi2 : Bigint.t }
type issuer = { gpk : gpk; gamma : Bigint.t }
type gsk = { a : G1.point; x : Bigint.t; e_a_g2 : Pairing.Gt.elt }

type signature = {
  t1 : G1.point;
  t2 : G1.point;
  t3 : G1.point;
  c : Bigint.t;
  s_alpha : Bigint.t;
  s_beta : Bigint.t;
  s_x : Bigint.t;
  s_delta1 : Bigint.t;
  s_delta2 : Bigint.t;
}

let scalar_width params = (Bigint.num_bits params.Params.q + 7) / 8

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

let challenge gpk ~msg ~t1 ~t2 ~t3 ~r1 ~r2 ~r3 ~r4 ~r5 =
  let params = gpk.params in
  let enc = G1.encode params in
  let data =
    frame
      [
        "bbs04-challenge";
        enc gpk.g1; enc gpk.h; enc gpk.u; enc gpk.v; enc gpk.w;
        msg;
        enc t1; enc t2; enc t3;
        enc r1; enc r2;
        Pairing.Gt.encode params r3;
        enc r4; enc r5;
      ]
  in
  let wide = Hmac.hkdf ~info:"bbs04-scalar" data (scalar_width params + 16) in
  Bigint.erem (Bigint.of_bytes_be wide) params.Params.q

let setup params rng =
  let q = params.Params.q in
  let g = G1.generator params in
  let g2 = G1.mul params (Bigint.random_range rng Bigint.one q) g in
  let g1 = g2 in
  let gamma = Bigint.random_range rng Bigint.one q in
  let w = G1.mul params gamma g2 in
  let h = G1.mul params (Bigint.random_range rng Bigint.one q) g in
  let xi1 = Bigint.random_range rng Bigint.one q in
  let xi2 = Bigint.random_range rng Bigint.one q in
  (* u = ξ1⁻¹·h and v = ξ2⁻¹·h so that ξ1·u = ξ2·v = h *)
  let u = G1.mul params (Modular.invert xi1 q) h in
  let v = G1.mul params (Modular.invert xi2 q) h in
  ( {
      gpk =
        {
          params;
          g1;
          g2;
          h;
          h_lines = Pairing.lines_of params h;
          u;
          v;
          w;
          e_g1_g2 = Pairing.tate params g1 g2;
          e_h_w = Pairing.tate params h w;
          e_h_g2 = Pairing.tate params h g2;
        };
      gamma;
    },
    { xi1; xi2 } )

let issue issuer rng =
  let params = issuer.gpk.params in
  let q = params.Params.q in
  let rec draw () =
    let x = Bigint.random_range rng Bigint.one q in
    let denom = Modular.add issuer.gamma x q in
    if Bigint.is_zero denom then draw ()
    else begin
      let a = G1.mul params (Modular.invert denom q) issuer.gpk.g1 in
      { a; x; e_a_g2 = Pairing.tate params a issuer.gpk.g2 }
    end
  in
  draw ()

let sign gpk gsk ~rng ~msg =
  Peace_obs.Trace.with_span "bbs04.sign" @@ fun () ->
  let params = gpk.params in
  let q = params.Params.q in
  let rand () = Bigint.random_below rng q in
  let alpha = Bigint.random_range rng Bigint.one q in
  let beta = Bigint.random_range rng Bigint.one q in
  let t1 = G1.mul params alpha gpk.u in
  let t2 = G1.mul params beta gpk.v in
  let t3 =
    G1.add params gsk.a (G1.mul params (Modular.add alpha beta q) gpk.h)
  in
  let delta1 = Modular.mul gsk.x alpha q in
  let delta2 = Modular.mul gsk.x beta q in
  let r_alpha = rand () and r_beta = rand () and r_x = rand () in
  let r_delta1 = rand () and r_delta2 = rand () in
  let r1 = G1.mul params r_alpha gpk.u in
  let r2 = G1.mul params r_beta gpk.v in
  (* e(T3,g2)^{r_x} = (e(A,g2)·e(h,g2)^{α+β})^{r_x} with e(A,g2) cached *)
  let e_t3_g2 =
    Pairing.Gt.mul params gsk.e_a_g2
      (Pairing.Gt.pow params gpk.e_h_g2 (Modular.add alpha beta q))
  in
  let r3 =
    Pairing.Gt.mul params
      (Pairing.Gt.pow params e_t3_g2 r_x)
      (Pairing.Gt.mul params
         (Pairing.Gt.pow params gpk.e_h_w
            (Bigint.neg (Modular.add r_alpha r_beta q)))
         (Pairing.Gt.pow params gpk.e_h_g2
            (Bigint.neg (Modular.add r_delta1 r_delta2 q))))
  in
  let r4 =
    G1.add params (G1.mul params r_x t1)
      (G1.neg params (G1.mul params r_delta1 gpk.u))
  in
  let r5 =
    G1.add params (G1.mul params r_x t2)
      (G1.neg params (G1.mul params r_delta2 gpk.v))
  in
  let c = challenge gpk ~msg ~t1 ~t2 ~t3 ~r1 ~r2 ~r3 ~r4 ~r5 in
  {
    t1;
    t2;
    t3;
    c;
    s_alpha = Modular.add r_alpha (Modular.mul c alpha q) q;
    s_beta = Modular.add r_beta (Modular.mul c beta q) q;
    s_x = Modular.add r_x (Modular.mul c gsk.x q) q;
    s_delta1 = Modular.add r_delta1 (Modular.mul c delta1 q) q;
    s_delta2 = Modular.add r_delta2 (Modular.mul c delta2 q) q;
  }

let verify gpk ~msg s =
  Peace_obs.Trace.with_span "bbs04.verify" @@ fun () ->
  let params = gpk.params in
  let q = params.Params.q in
  let in_range v = Bigint.sign v >= 0 && Bigint.compare v q < 0 in
  G1.on_curve params s.t1 && G1.on_curve params s.t2 && G1.on_curve params s.t3
  && (not (G1.is_infinity s.t1))
  && (not (G1.is_infinity s.t2))
  && in_range s.c && in_range s.s_alpha && in_range s.s_beta && in_range s.s_x
  && in_range s.s_delta1 && in_range s.s_delta2
  &&
  let neg v = Modular.sub Bigint.zero v q in
  let r1 =
    G1.add params (G1.mul params s.s_alpha gpk.u)
      (G1.neg params (G1.mul params s.c s.t1))
  in
  let r2 =
    G1.add params (G1.mul params s.s_beta gpk.v)
      (G1.neg params (G1.mul params s.c s.t2))
  in
  (* R̃3 = e(T3, s_x·g2 + c·w) · e(h, −(s_α+s_β)·w − (s_δ1+s_δ2)·g2)
          · e(g1,g2)^{−c} *)
  let arg1 =
    G1.add params (G1.mul params s.s_x gpk.g2) (G1.mul params s.c gpk.w)
  in
  let arg2 =
    G1.add params
      (G1.mul params (neg (Modular.add s.s_alpha s.s_beta q)) gpk.w)
      (G1.mul params (neg (Modular.add s.s_delta1 s.s_delta2 q)) gpk.g2)
  in
  let r3 =
    Pairing.Gt.mul params
      (Pairing.tate_lines params
         [ (Pairing.lines_of params s.t3, arg1); (gpk.h_lines, arg2) ])
      (Pairing.Gt.pow params gpk.e_g1_g2 (Bigint.neg s.c))
  in
  let r4 =
    G1.add params (G1.mul params s.s_x s.t1)
      (G1.neg params (G1.mul params s.s_delta1 gpk.u))
  in
  let r5 =
    G1.add params (G1.mul params s.s_x s.t2)
      (G1.neg params (G1.mul params s.s_delta2 gpk.v))
  in
  Bigint.equal s.c (challenge gpk ~msg ~t1:s.t1 ~t2:s.t2 ~t3:s.t3 ~r1 ~r2 ~r3 ~r4 ~r5)

let open_signature gpk opener s =
  let params = gpk.params in
  G1.add params s.t3
    (G1.neg params
       (G1.add params
          (G1.mul params opener.xi1 s.t1)
          (G1.mul params opener.xi2 s.t2)))

let signature_size gpk =
  let params = gpk.params in
  (6 * scalar_width params) + (3 * Params.group_element_bytes params)

let signature_to_bytes gpk s =
  let params = gpk.params in
  let width = scalar_width params in
  String.concat ""
    [
      G1.encode params s.t1;
      G1.encode params s.t2;
      G1.encode params s.t3;
      Bigint.to_bytes_be ~width s.c;
      Bigint.to_bytes_be ~width s.s_alpha;
      Bigint.to_bytes_be ~width s.s_beta;
      Bigint.to_bytes_be ~width s.s_x;
      Bigint.to_bytes_be ~width s.s_delta1;
      Bigint.to_bytes_be ~width s.s_delta2;
    ]
