(* Elliptic-curve group law and ECDSA tests, cross-checked against an
   independent affine reference implementation. *)

open Peace_bigint
open Peace_ec

let p256 = Lazy.force Curves.secp256r1
let s160 = Lazy.force Curves.secp160r1
let big = Alcotest.testable Bigint.pp Bigint.equal

let test_rng seed =
  let state = ref seed in
  fun n ->
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      state := (!state * 2685821657736338717) + 1442695040888963407;
      Bytes.set b i (Char.chr ((!state lsr 32) land 0xff))
    done;
    Bytes.unsafe_to_string b

let affine_exn curve pt =
  match Curve.to_affine curve pt with
  | Some xy -> xy
  | None -> Alcotest.fail "unexpected point at infinity"

(* field orders of the two secp curves; a = p − 3 on both *)
let secp =
  [
    (s160, Bigint.of_string "0xffffffffffffffffffffffffffffffff7fffffff");
    ( p256,
      Bigint.of_string
        "0xffffffff00000001000000000000000000000000ffffffffffffffffffffffff" );
  ]

(* and their coefficients b *)
let secp_b =
  [
    (s160, Bigint.of_string "0x1c97befc54bd7a8b65acf89f81d4d4adc565fa45");
    ( p256,
      Bigint.of_string
        "0x5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b" );
  ]

(* Textbook affine double-and-add on integer coordinates for
   y² = x³ + ax + b over F_p ([None] is the point at infinity): the slow
   reference for [Curve.mul] and [Curve.mul2], as [Params.affine_mul] is
   for G1. *)
let ref_add p a pt1 pt2 =
  match (pt1, pt2) with
  | None, q | q, None -> q
  | Some (x1, y1), Some (x2, y2) ->
    if Bigint.equal x1 x2 && Bigint.is_zero (Modular.add y1 y2 p) then None
    else begin
      let lambda =
        if Bigint.equal x1 x2 then
          (* (3x² + a) / 2y *)
          Modular.mul
            (Modular.add (Modular.mul (Bigint.of_int 3) (Modular.mul x1 x1 p) p) a p)
            (Modular.invert (Modular.add y1 y1 p) p)
            p
        else
          Modular.mul (Modular.sub y2 y1 p) (Modular.invert (Modular.sub x2 x1 p) p) p
      in
      let x3 = Modular.sub (Modular.mul lambda lambda p) (Modular.add x1 x2 p) p in
      let y3 = Modular.sub (Modular.mul lambda (Modular.sub x1 x3 p) p) y1 p in
      Some (x3, y3)
    end

let ref_mul p a k pt =
  let result = ref None in
  for i = Bigint.num_bits k - 1 downto 0 do
    result := ref_add p a !result !result;
    if Bigint.testbit k i then result := ref_add p a !result pt
  done;
  !result

let test_known_multiples () =
  (* vectors from an independent CPython affine implementation *)
  let k =
    Bigint.of_string
      "0xc51e4753afdec1e6b6c6a5b992f43f8dd0c7a8933072708b6522468b2ffb06fd"
  in
  let x, y = affine_exn p256 (Curve.mul_base p256 k) in
  Alcotest.(check big) "p256 kG.x"
    (Bigint.of_string "0x942c9f408ead9d82d34a1b9a6a827ebe3e2ddf782b448d23be1b6143988ccef4") x;
  Alcotest.(check big) "p256 kG.y"
    (Bigint.of_string "0x8c9eaf6c0d14d992fc63bad3e2496be2eee61cb5b97f65f428ca94a5d0ee19a1") y;
  let x2, _ = affine_exn p256 (Curve.double p256 (Curve.base p256)) in
  Alcotest.(check big) "p256 2G.x"
    (Bigint.of_string "0x7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978") x2;
  let k160 = Bigint.of_string "0xdeadbeefcafebabe0123456789abcdef01234567" in
  let x, y = affine_exn s160 (Curve.mul_base s160 k160) in
  Alcotest.(check big) "s160 kG.x"
    (Bigint.of_string "0x17aa2e605033df5b23b71cfc554e5c5ee68e7dc2") x;
  Alcotest.(check big) "s160 kG.y"
    (Bigint.of_string "0x49375fd4a344d5ae732563ce1a1dc390917d7678") y

let test_group_laws () =
  let curve = s160 in
  let g = Curve.base curve in
  let inf = Curve.infinity curve in
  Alcotest.(check bool) "G + O = G" true (Curve.equal curve g (Curve.add curve g inf));
  Alcotest.(check bool) "O + G = G" true (Curve.equal curve g (Curve.add curve inf g));
  Alcotest.(check bool) "G + (-G) = O" true
    (Curve.is_infinity (Curve.add curve g (Curve.neg curve g)));
  Alcotest.(check bool) "G + G = 2G" true
    (Curve.equal curve (Curve.add curve g g) (Curve.double curve g));
  Alcotest.(check bool) "nG = O" true
    (Curve.is_infinity (Curve.mul_base curve (Curve.order curve)));
  Alcotest.(check bool) "(n-1)G = -G" true
    (Curve.equal curve
       (Curve.mul_base curve (Bigint.pred (Curve.order curve)))
       (Curve.neg curve g));
  Alcotest.(check bool) "0*G = O" true (Curve.is_infinity (Curve.mul_base curve Bigint.zero));
  (* 2G + 3G = 5G *)
  let two_g = Curve.mul_base curve Bigint.two in
  let three_g = Curve.mul_base curve (Bigint.of_int 3) in
  let five_g = Curve.mul_base curve (Bigint.of_int 5) in
  Alcotest.(check bool) "2G + 3G = 5G" true
    (Curve.equal curve five_g (Curve.add curve two_g three_g))

let test_point_validation () =
  Alcotest.check_raises "off-curve point rejected"
    (Invalid_argument "Curve.point: not on curve") (fun () ->
      ignore (Curve.point s160 ~x:Bigint.one ~y:Bigint.one));
  let g = Curve.base s160 in
  Alcotest.(check bool) "base on curve" true (Curve.on_curve s160 g);
  Alcotest.(check bool) "infinity on curve" true
    (Curve.on_curve s160 (Curve.infinity s160));
  (* the group law knows a = −3 and y² = x³ + x only *)
  let refused name ~a ~b =
    Alcotest.check_raises name
      (Invalid_argument "Ecp.make: a must be -3, or 1 with b = 0") (fun () ->
        ignore
          (Curve.make ~name ~p:(List.assq s160 secp) ~a ~b ~gx:Bigint.zero
             ~gy:Bigint.one ~n:(Curve.order s160)))
  in
  refused "a = 0 refused" ~a:Bigint.zero ~b:Bigint.one;
  refused "a = 1, b = 1 refused" ~a:Bigint.one ~b:Bigint.one

let test_encoding () =
  let rng = test_rng 99 in
  for _ = 1 to 10 do
    let k = Bigint.random_range rng Bigint.one (Curve.order s160) in
    let pt = Curve.mul_base s160 k in
    match Curve.decode s160 (Curve.encode s160 pt) with
    | Some pt' -> Alcotest.(check bool) "uncompressed round trip" true (Curve.equal s160 pt pt')
    | None -> Alcotest.fail "decode failed"
  done;
  (* infinity *)
  (match Curve.decode s160 (Curve.encode s160 (Curve.infinity s160)) with
  | Some pt -> Alcotest.(check bool) "infinity round trip" true (Curve.is_infinity pt)
  | None -> Alcotest.fail "infinity decode failed");
  Alcotest.(check bool) "garbage rejected" true (Curve.decode s160 "garbage" = None);
  Alcotest.(check bool) "empty rejected" true (Curve.decode s160 "" = None);
  (* the base point with y one off is not on the curve *)
  let x, y = affine_exn s160 (Curve.base s160) in
  let bytes v = Bigint.to_bytes_be ~width:(Curve.byte_size s160) v in
  Alcotest.(check bool) "off-curve rejected" true
    (Curve.decode s160 ("\x04" ^ bytes x ^ bytes (Bigint.succ y)) = None)

(* SEC 1 coordinates must lie below p: read mod p, x + p would be a second
   encoding of the point at x *)
let test_decode_canonical () =
  List.iter
    (fun (curve, p) ->
      let bytes v = Bigint.to_bytes_be ~width:(Curve.byte_size curve) v in
      (* the smallest x >= 1 on the curve: x³ − 3x + b has a root *)
      let fp = Mont.create p and b = List.assq curve secp_b in
      let rec first x =
        let xx_minus_3 = Modular.sub (Modular.mul x x p) (Bigint.of_int 3) p in
        let rhs = Modular.add (Modular.mul x xx_minus_3 p) b p in
        match Mont.sqrt fp (Mont.of_bigint fp rhs) with
        | Some y -> (x, Mont.to_bigint fp y)
        | None -> first (Bigint.succ x)
      in
      let x, y = first Bigint.one in
      Alcotest.(check bool) (Curve.name curve ^ " canonical decodes") true
        (Option.is_some (Curve.decode curve ("\x04" ^ bytes x ^ bytes y)));
      Alcotest.(check bool) (Curve.name curve ^ " x + p refused") true
        (Option.is_none (Curve.decode curve ("\x04" ^ bytes (Bigint.add x p) ^ bytes y))))
    secp

let test_ecdsa_sign_verify () =
  List.iter
    (fun curve ->
      let rng = test_rng 7 in
      let key = Ecdsa.generate curve rng in
      let msg = "beacon message: router-42, expiry 17:00" in
      let signature = Ecdsa.sign curve ~key msg in
      Alcotest.(check bool) "verifies" true
        (Ecdsa.verify curve ~public:key.q msg signature);
      Alcotest.(check bool) "wrong message rejected" false
        (Ecdsa.verify curve ~public:key.q (msg ^ "!") signature);
      let other = Ecdsa.generate curve rng in
      Alcotest.(check bool) "wrong key rejected" false
        (Ecdsa.verify curve ~public:other.q msg signature);
      Alcotest.(check bool) "tampered r rejected" false
        (Ecdsa.verify curve ~public:key.q msg
           { signature with r = Bigint.succ signature.r });
      Alcotest.(check bool) "zero r rejected" false
        (Ecdsa.verify curve ~public:key.q msg { signature with r = Bigint.zero });
      Alcotest.(check bool) "s = n rejected" false
        (Ecdsa.verify curve ~public:key.q msg
           { signature with s = Curve.order curve });
      (* deterministic nonces: same message, same signature *)
      let signature' = Ecdsa.sign curve ~key msg in
      Alcotest.(check bool) "deterministic" true
        (Bigint.equal signature.r signature'.r && Bigint.equal signature.s signature'.s))
    [ s160; p256 ]

let test_ecdsa_serialisation () =
  let rng = test_rng 13 in
  let key = Ecdsa.generate s160 rng in
  let signature = Ecdsa.sign s160 ~key "msg" in
  let bytes = Ecdsa.signature_to_bytes s160 signature in
  Alcotest.(check int) "size" (Ecdsa.signature_size s160) (String.length bytes);
  (match Ecdsa.signature_of_bytes s160 bytes with
  | Some s' ->
    Alcotest.(check big) "r" signature.r s'.r;
    Alcotest.(check big) "s" signature.s s'.s
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check bool) "bad length rejected" true
    (Ecdsa.signature_of_bytes s160 (bytes ^ "\x00") = None);
  (* the paper quotes ECDSA-160 signatures at 320 bits = 40 bytes + a bit of
     slack; ours is 42 bytes because n is 161 bits *)
  Alcotest.(check int) "ecdsa-160 size" 42 (Ecdsa.signature_size s160)

let test_external_ecdsa_vector () =
  (* a signature produced by an independent CPython implementation with an
     explicit nonce; our verifier must accept it, and reject it under the
     wrong key/message *)
  let public =
    Curve.point s160
      ~x:(Bigint.of_string "0xd463026b5115d49f639b1bb411b9a9af37aa79be")
      ~y:(Bigint.of_string "0xf17c1e630abccc30e297d91d00ac4522cbc1f0fa")
  in
  let signature =
    {
      Ecdsa.r = Bigint.of_string "0xbb1a9b3dfb4d614e2ce5eb235c35cb97ae72e4fb";
      s = Bigint.of_string "0x68e38a09c173a379a492441b3cba9f1aae36f91c";
    }
  in
  let msg = "externally signed message" in
  Alcotest.(check bool) "external signature verifies" true
    (Ecdsa.verify s160 ~public msg signature);
  Alcotest.(check bool) "wrong message rejected" false
    (Ecdsa.verify s160 ~public "other" signature);
  Alcotest.(check bool) "wrong key rejected" false
    (Ecdsa.verify s160 ~public:(Curve.base s160) msg signature);
  (* the private key matching the vector reproduces its own valid sigs *)
  let key =
    {
      Ecdsa.d = Bigint.of_string "0x1234567890abcdef1234567890abcdef12345678";
      q = public;
    }
  in
  Alcotest.(check bool) "same key signs and verifies" true
    (Ecdsa.verify s160 ~public msg (Ecdsa.sign s160 ~key msg))

let qcheck_tests =
  let scalar_gen =
    QCheck.map
      (fun seed -> Bigint.random_range (test_rng seed) Bigint.one (Curve.order s160))
      QCheck.int
  in
  let scalar = QCheck.make ~print:Bigint.to_string (QCheck.gen scalar_gen) in
  [
    QCheck.Test.make ~name:"mul distributes over add" ~count:30
      (QCheck.pair scalar scalar)
      (fun (j, k) ->
        let lhs = Curve.mul_base s160 (Bigint.erem (Bigint.add j k) (Curve.order s160)) in
        let rhs = Curve.add s160 (Curve.mul_base s160 j) (Curve.mul_base s160 k) in
        Curve.equal s160 lhs rhs);
    QCheck.Test.make ~name:"mul is associative with scalar mul" ~count:20
      (QCheck.pair scalar scalar)
      (fun (j, k) ->
        let lhs = Curve.mul s160 j (Curve.mul_base s160 k) in
        let rhs = Curve.mul_base s160 (Modular.mul j k (Curve.order s160)) in
        Curve.equal s160 lhs rhs);
    QCheck.Test.make ~name:"multiples stay on curve" ~count:30 scalar
      (fun k -> Curve.on_curve s160 (Curve.mul_base s160 k));
    QCheck.Test.make ~name:"ecdsa round trip random messages" ~count:15
      QCheck.string
      (fun msg ->
        let key = Ecdsa.generate s160 (test_rng 21) in
        Ecdsa.verify s160 ~public:key.q msg (Ecdsa.sign s160 ~key msg));
  ]
  @ List.concat_map
      (fun (curve, p) ->
        let a = Bigint.sub p (Bigint.of_int 3) in
        let n = Curve.order curve in
        let same pt expected =
          Option.equal
            (fun (x, y) (x', y') -> Bigint.equal x x' && Bigint.equal y y')
            (Curve.to_affine curve pt) expected
        in
        (* a scalar in [0, 2n) and a point P = sG, s in [1, n) *)
        let draw seed =
          let rng = test_rng seed in
          let k = Bigint.random_range rng Bigint.zero (Bigint.add n n) in
          (k, Curve.mul_base curve (Bigint.random_range rng Bigint.one n))
        in
        let edges = [ Bigint.zero; Bigint.one; Bigint.pred n; n; Bigint.succ n ] in
        let name s = Curve.name curve ^ " " ^ s in
        [
          QCheck.Test.make ~name:(name "mul = affine reference") ~count:8 QCheck.int
            (fun seed ->
              let k, pt = draw seed in
              let xy = Curve.to_affine curve pt in
              List.for_all (fun k -> same (Curve.mul curve k pt) (ref_mul p a k xy)) (k :: edges));
          QCheck.Test.make ~name:(name "mul2 = sum of affine references") ~count:8
            (QCheck.pair QCheck.int QCheck.int)
            (fun (s1, s2) ->
              let j, pt = draw s1 and k, qt = draw s2 in
              let jp = ref_mul p a j (Curve.to_affine curve pt) in
              let kq = ref_mul p a k (Curve.to_affine curve qt) in
              same (Curve.mul2 curve j pt k qt) (ref_add p a jp kq)
              && same (Curve.mul2 curve j pt j pt) (ref_add p a jp jp)
              && Curve.is_infinity (Curve.mul2 curve j pt j (Curve.neg curve pt))
              && same (Curve.mul2 curve Bigint.zero pt k qt) kq);
          (* only the uncompressed form decodes: a point's x, its x ‖ y and
             random bodies of every length behind 0x02 or 0x03 are refused *)
          QCheck.Test.make ~name:(name "decode refuses 02/03") ~count:20 QCheck.int
            (fun seed ->
              let rng = test_rng seed and _, pt = draw seed in
              let size = Curve.byte_size curve and e = Curve.encode curve pt in
              List.for_all
                (fun prefix ->
                  List.for_all
                    (fun body -> Curve.decode curve (prefix ^ body) = None)
                    [
                      String.sub e 1 size;
                      String.sub e 1 (2 * size);
                      "";
                      rng size;
                      rng (2 * size);
                      rng (Char.code (rng 1).[0]);
                    ])
                [ "\x02"; "\x03" ]);
        ])
      secp

(* --- G1's doubling on y² = x³ + x against the general formula --- *)

module Params = Peace_pairing.Params
module G1 = Peace_pairing.G1

let presets =
  [ ("tiny", Params.tiny); ("light", Params.light); ("paper_size", Params.paper_size) ]

(* The general Jacobian doubling for a = 1 (3M + 6S, 14 additions), which
   never reads the curve equation: the oracle for Ecp's b = 0 doubling.
   M = 3X² + Z⁴, S = 4XY², X₃ = M² − 2S, Y₃ = M(S − X₃) − 8Y⁴, Z₃ = 2YZ;
   it returns M and the triple. *)
let general_double fp x y z =
  let ( + ) = Mont.add fp and ( - ) = Mont.sub fp and ( * ) = Mont.mul fp in
  let twice t = t + t in
  let yy = y * y and xx = x * x and zz = z * z in
  let s = twice (twice (x * yy)) in
  let m = xx + xx + xx + (zz * zz) in
  let x3 = (m * m) - twice s in
  let y3 = (m * (s - x3)) - twice (twice (twice (yy * yy))) in
  (m, x3, y3, twice (y * z))

(* the point (x, y) on E with a y for [x], if x³ + x is a square *)
let point_at params x =
  let x = Mont.of_bigint params.Params.fp x in
  Option.map (fun y -> (x, y)) (Ecp.lift params.Params.ec x)

let rec random_point params rng =
  let x = Bigint.random_below rng params.Params.p in
  match point_at params x with
  | Some (x, y) ->
    (x, if Char.code (rng 1).[0] land 1 = 0 then y else Mont.neg params.Params.fp y)
  | None -> random_point params rng

(* (1, √2) or (−1, √−2), whichever exists: p ≡ 3 (mod 4) makes exactly one
   of 2 and −2 a square, and twice either point is (0, 0) *)
let order_four params =
  match point_at params Bigint.one with
  | Some xy -> xy
  | None -> Option.get (point_at params (Bigint.pred params.Params.p))

(* G1's random element, and G1's view of an E point, across the codec's
   abstract type *)
let g1_random params rng = Option.get (G1.coords (G1.random params rng))

let g1_of params pt =
  match Ecp.to_affine params.Params.ec pt with
  | Some (x, y) -> G1.of_affine params ~x ~y
  | None -> G1.infinity

let affine_of fp x y z =
  let zi = Mont.inv fp z in
  let zi2 = Mont.sqr fp zi in
  (Mont.mul fp x zi2, Mont.mul fp y (Mont.mul fp zi2 zi))

(* From random Jacobian representatives (x·z², y·z³, z) of random points
   in and outside G_q, of (0, 0) and of a point of order 4, [jac_double]
   gives the general formula's triple, hands its hook the general
   numerator, and lands on [Ecp.double]'s and [Params.affine_mul]'s
   affine 2P. Each of the mutations Y₃ = D·((A + C)² − X₃) (no factor 2),
   C = Z² (not Z⁴) and Z₃ = YZ fails this case and the next. *)
let test_g1_doubling () =
  List.iter
    (fun (name, params) ->
      let params = Lazy.force params in
      let fp = params.Params.fp and ec = params.Params.ec and p = params.Params.p in
      let rng = test_rng (Hashtbl.hash name) in
      let points =
        ((Mont.zero fp, Mont.zero fp) :: order_four params
        :: List.init 8 (fun _ -> random_point params rng))
        @ List.init 8 (fun _ -> g1_random params rng)
      in
      List.iter
        (fun (x, y) ->
          let z = Mont.of_bigint fp (Bigint.random_range rng Bigint.one p) in
          let zz = Mont.sqr fp z in
          let jx = Mont.mul fp x zz and jy = Mont.mul fp y (Mont.mul fp zz z) in
          let heard = ref None in
          let doubled =
            Ecp.jac_double ec
              (fun n x3 y3 z3 zz3 -> heard := Some (n, x3, y3, z3, zz3))
              (Ecp.Jac { jx; jy; jz = z; jzz = zz })
          in
          let want =
            Option.map (fun (x, y) -> (Mont.of_bigint fp x, Mont.of_bigint fp y))
              (Params.affine_mul p Bigint.two (Some (Mont.to_bigint fp x, Mont.to_bigint fp y)))
          in
          let same_affine label got =
            Alcotest.(check bool) (label ^ " = affine_mul") true
              (Option.equal (fun (a, b) (c, d) -> Mont.equal fp a c && Mont.equal fp b d) got want);
            Alcotest.(check bool) (label ^ " = Ecp.double") true
              (Ecp.equal ec (Ecp.double ec (Ecp.Affine { x; y }))
                 (match got with Some (x, y) -> Ecp.Affine { x; y } | None -> Ecp.Infinity))
          in
          match doubled with
          | Ecp.Jinf ->
            Alcotest.(check bool) (name ^ ": only Y = 0 doubles to O") true (Mont.is_zero fp y);
            Alcotest.(check bool) (name ^ ": a vertical tangent draws no line") true (!heard = None);
            same_affine (name ^ ": 2·(0, 0)") None
          | Ecp.Jac { jx = x3; jy = y3; jz = z3; jzz = zz3 } ->
            let m, gx3, gy3, gz3 = general_double fp jx jy z in
            let eq = Mont.equal fp in
            Alcotest.(check bool) (name ^ ": triple = general formula's") true
              (eq x3 gx3 && eq y3 gy3 && eq z3 gz3);
            Alcotest.(check bool) (name ^ ": keeps Z₃²") true (eq zz3 (Mont.sqr fp z3));
            (match !heard with
            | Some (n, hx, hy, hz, hzz) ->
              Alcotest.(check bool) (name ^ ": hook hears 3X² + Z⁴") true (eq n m);
              Alcotest.(check bool) (name ^ ": hook hears the triple and Z₃²") true
                (eq hx x3 && eq hy y3 && eq hz z3 && eq hzz zz3)
            | None -> Alcotest.fail (name ^ ": tangent not drawn"));
            same_affine (name ^ ": 2P") (Some (affine_of fp x3 y3 z3)))
        points)
    presets

(* the distinct prime factors of a small h *)
let prime_factors h =
  let rec go n d acc =
    if n = 1 then List.rev acc
    else if n mod d = 0 then
      let rec strip n = if n mod d = 0 then strip (n / d) else n in
      go (strip n) (d + 1) (d :: acc)
    else go n (d + 1) acc
  in
  go h 2 []

(* S + E for S ∈ G_q and E ≠ O of order dividing h is outside G_q: q·(S + E)
   = q·E ≠ O, so the subgroup check's scalar multiplication must not reach
   O and G1's decode must refuse the encoding. Where h is small (tiny's 288,
   paper_size's 36) E runs over every nonzero q·R, the multiples of a
   generator of the h-torsion; at light (352-bit h) over (0, 0), both
   points of order 4 and eight random q·R. *)
let test_g1_outside_subgroup () =
  List.iter
    (fun (name, params) ->
      let params = Lazy.force params in
      let fp = params.Params.fp and ec = params.Params.ec and q = params.Params.q in
      let h = params.Params.h in
      let rng = test_rng (Hashtbl.hash (name ^ " torsion")) in
      let q_times (x, y) = Ecp.mul ec q (Ecp.Affine { x; y }) in
      let torsion =
        if Bigint.num_bits h <= 16 then begin
          let h = Bigint.to_int h in
          (* a q·R of order exactly h *)
          let rec generator () =
            let e = q_times (random_point params rng) in
            if
              List.exists
                (fun l -> Ecp.is_infinity (Ecp.mul ec (Bigint.of_int (h / l)) e))
                (prime_factors h)
            then generator ()
            else e
          in
          let e0 = generator () in
          (* E0, 2·E0, …, (h − 1)·E0 by repeated addition *)
          let multiples = ref [ e0 ] in
          for _ = 2 to h - 1 do
            multiples := Ecp.add ec (List.hd !multiples) e0 :: !multiples
          done;
          !multiples
        end
        else begin
          let x4, y4 = order_four params in
          [
            Ecp.Affine { x = Mont.zero fp; y = Mont.zero fp };
            Ecp.Affine { x = x4; y = y4 };
            Ecp.Affine { x = x4; y = Mont.neg fp y4 };
          ]
          @ List.init 8 (fun _ -> q_times (random_point params rng))
        end
      in
      let sx, sy = g1_random params rng in
      let s = Ecp.Affine { x = sx; y = sy } in
      Alcotest.(check bool) (name ^ ": S decodes") true
        (Option.is_some (G1.decode params (G1.encode params (g1_of params s))));
      Alcotest.(check bool) (name ^ ": q·S = O") true (Ecp.mul_is_infinity ec q sx sy);
      List.iteri
        (fun k e ->
          match (e, Ecp.add ec s e) with
          | Ecp.Infinity, _ | _, Ecp.Infinity ->
            Alcotest.failf "%s: E%d or S + E%d is O" name k k
          | Ecp.Affine _, (Ecp.Affine { x; y } as se) ->
            if Ecp.mul_is_infinity ec q x y then Alcotest.failf "%s: q·(S + E%d) = O" name k;
            if G1.decode params (G1.encode params (g1_of params se)) <> None then
              Alcotest.failf "%s: S + E%d decodes" name k)
        torsion;
      if Bigint.num_bits h <= 16 then
        Alcotest.(check int) (name ^ ": every nonzero E") (Bigint.to_int h - 1)
          (List.length (List.sort_uniq String.compare (List.map (fun e -> G1.encode params (g1_of params e)) torsion))))
    presets

let suite =
  [
    ( "curve",
      [
        Alcotest.test_case "known multiples" `Quick test_known_multiples;
        Alcotest.test_case "group laws" `Quick test_group_laws;
        Alcotest.test_case "point validation" `Quick test_point_validation;
        Alcotest.test_case "encoding" `Quick test_encoding;
        Alcotest.test_case "decode refuses non-canonical" `Quick test_decode_canonical;
        Alcotest.test_case "G1 doubling = general formula" `Quick test_g1_doubling;
        Alcotest.test_case "G1 points outside G_q refused" `Quick test_g1_outside_subgroup;
      ] );
    ( "ecdsa",
      [
        Alcotest.test_case "sign/verify" `Quick test_ecdsa_sign_verify;
        Alcotest.test_case "serialisation" `Quick test_ecdsa_serialisation;
        Alcotest.test_case "external vector" `Quick test_external_ecdsa_vector;
      ] );
    ("ec-properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

let () = Alcotest.run "peace-ec" suite
