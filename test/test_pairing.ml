(* Pairing-layer tests: parameter validity, G1 group laws, Fq2 field axioms,
   bilinearity and non-degeneracy of the modified Tate pairing. *)

open Peace_bigint
open Peace_pairing

let tiny = Lazy.force Params.tiny
let light = Lazy.force Params.light

let test_rng seed =
  let state = ref seed in
  fun n ->
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      state := (!state * 2685821657736338717) + 1442695040888963407;
      Bytes.set b i (Char.chr ((!state lsr 32) land 0xff))
    done;
    Bytes.unsafe_to_string b

let scalar params seed = Bigint.random_range (test_rng seed) Bigint.one params.Params.q

(* x³ + x and its square root through generic [Modular], not the field
   root under test: Euler's criterion, rhs^((p−1)/2) = 1, decides whether
   a root exists, and the root is rhs^((p+1)/4), the one [Mont.sqrt]
   returns *)
let reference_root params x =
  let p = params.Params.p in
  let rhs = Modular.add (Modular.powm x (Bigint.of_int 3) p) x p in
  if Bigint.is_zero rhs || Bigint.is_one (Modular.powm rhs (Bigint.shift_right p 1) p)
  then Some (Modular.powm rhs (Bigint.shift_right (Bigint.succ p) 2) p)
  else None

let test_params_valid () =
  List.iter
    (fun (name, params) ->
      match Params.validate params with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s params invalid: %s" name e)
    [
      ("tiny", tiny);
      ("light", light);
      ("paper-size", Lazy.force Params.paper_size);
    ]

let test_params_generate () =
  let params = Params.generate (test_rng 3) ~qbits:40 ~pbits:96 ~name:"generated" in
  (match Params.validate params with
  | Ok () -> ()
  | Error e -> Alcotest.failf "generated params invalid: %s" e);
  Alcotest.(check int) "q bits" 40 (Bigint.num_bits params.q);
  Alcotest.(check int) "p bits" 96 (Bigint.num_bits params.p)

(* Generation under a fixed DRBG seed gives one exact parameter set: a
   change in which root or which generator is picked shows here *)
let test_params_generate_golden () =
  let rng = Peace_hash.Drbg.bytes_fn (Peace_hash.Drbg.create ~seed:"params-golden" ()) in
  Alcotest.(check string) "20/48-bit parameters"
    "peace-params-v1\ngolden\n920f042ffef7\nab037\ndaa4cc8\n81cdb6df6f0b\n3bf51d0c2d12\n"
    (Params.to_text (Params.generate rng ~qbits:20 ~pbits:48 ~name:"golden"))

let test_g1_group_laws () =
  let params = tiny in
  let g = G1.generator params in
  Alcotest.(check bool) "generator on curve" true (G1.on_curve params g);
  Alcotest.(check bool) "generator in subgroup" true (G1.in_subgroup params g);
  Alcotest.(check bool) "qG = O" true
    (G1.is_infinity (G1.mul params params.q g));
  Alcotest.(check bool) "G + O = G" true
    (G1.equal params g (G1.add params g G1.infinity));
  Alcotest.(check bool) "G + (-G) = O" true
    (G1.is_infinity (G1.add params g (G1.neg params g)));
  Alcotest.(check bool) "2G = G+G" true
    (G1.equal params (G1.double params g) (G1.add params g g));
  let a = scalar params 1 and b = scalar params 2 in
  let lhs = G1.mul params (Modular.add a b params.q) g in
  let rhs = G1.add params (G1.mul params a g) (G1.mul params b g) in
  Alcotest.(check bool) "(a+b)G = aG + bG" true (G1.equal params lhs rhs);
  (* mul is a homomorphism through another point *)
  let p = G1.mul params a g in
  Alcotest.(check bool) "b(aG) = (ab)G" true
    (G1.equal params (G1.mul params b p)
       (G1.mul params (Modular.mul a b params.q) g))

let test_g1_encoding () =
  let params = tiny in
  let rng = test_rng 17 in
  for _ = 1 to 10 do
    let p = G1.random params rng in
    match G1.decode params (G1.encode params p) with
    | Some p' -> Alcotest.(check bool) "round trip" true (G1.equal params p p')
    | None -> Alcotest.fail "decode failed"
  done;
  (match G1.decode params (G1.encode params G1.infinity) with
  | Some p -> Alcotest.(check bool) "infinity round trip" true (G1.is_infinity p)
  | None -> Alcotest.fail "infinity decode failed");
  Alcotest.(check bool) "bad length rejected" true (G1.decode params "xx" = None);
  Alcotest.(check bool) "bad prefix rejected" true
    (G1.decode params ("\x07" ^ String.make (Params.group_element_bytes params - 1) 'a')
    = None)

let test_decode_rejects_nonsubgroup () =
  let params = tiny in
  (* find an on-curve point of full order (outside the q-subgroup) *)
  let rec find x =
    let xb = Bigint.of_int x in
    match reference_root params xb with
    | Some y when not (Bigint.is_zero y) ->
      let pt = G1.of_affine params ~x:xb ~y in
      if not (G1.in_subgroup params pt) then pt else find (x + 1)
    | _ -> find (x + 1)
  in
  let rogue = find 2 in
  Alcotest.(check bool) "constructed outside subgroup" false
    (G1.in_subgroup params rogue);
  (* its encoding is refused at the trust boundary *)
  Alcotest.(check bool) "decode rejects non-subgroup encoding" true
    (G1.decode params (G1.encode params rogue) = None);
  (* subgroup points still decode *)
  let ok_pt = G1.generator params in
  Alcotest.(check bool) "subgroup point decodes" true
    (G1.decode params (G1.encode params ok_pt) <> None)

let test_hash_to_point () =
  let params = tiny in
  let p1 = G1.hash_to_point params "message one" in
  let p2 = G1.hash_to_point params "message two" in
  let p1' = G1.hash_to_point params "message one" in
  Alcotest.(check bool) "deterministic" true (G1.equal params p1 p1');
  Alcotest.(check bool) "distinct messages differ" false (G1.equal params p1 p2);
  Alcotest.(check bool) "in subgroup" true (G1.in_subgroup params p1);
  Alcotest.(check bool) "not infinity" false (G1.is_infinity p1)

let test_fq2_field_axioms () =
  let fp = tiny.Params.fp in
  let rng = test_rng 23 in
  let random_elt () =
    Fq2.of_bigints fp
      (Bigint.random_below rng tiny.Params.p)
      (Bigint.random_below rng tiny.Params.p)
  in
  for _ = 1 to 20 do
    let a = random_elt () and b = random_elt () and c = random_elt () in
    Alcotest.(check bool) "mul commutes" true
      (Fq2.equal fp (Fq2.mul fp a b) (Fq2.mul fp b a));
    Alcotest.(check bool) "mul associates" true
      (Fq2.equal fp
         (Fq2.mul fp a (Fq2.mul fp b c))
         (Fq2.mul fp (Fq2.mul fp a b) c));
    Alcotest.(check bool) "distributes" true
      (Fq2.equal fp
         (Fq2.mul fp a (Fq2.add fp b c))
         (Fq2.add fp (Fq2.mul fp a b) (Fq2.mul fp a c)));
    Alcotest.(check bool) "sqr = mul self" true
      (Fq2.equal fp (Fq2.sqr fp a) (Fq2.mul fp a a));
    if not (Fq2.is_zero fp a) then begin
      Alcotest.(check bool) "inv inverts" true
        (Fq2.is_one fp (Fq2.mul fp a (Fq2.inv fp a)));
      (* conj is the Frobenius: a^p = conj a *)
      Alcotest.(check bool) "frobenius" true
        (Fq2.equal fp (Fq2.pow fp a tiny.Params.p) (Fq2.conj fp a))
    end
  done;
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Fq2.inv fp (Fq2.zero fp)))

let test_bilinearity params () =
  let g = G1.generator params in
  let e_gg = Pairing.tate params g g in
  Alcotest.(check bool) "non-degenerate" false (Pairing.Gt.is_one params e_gg);
  (* order q: e(G,G)^q = 1 *)
  Alcotest.(check bool) "target in order-q subgroup" true
    (Pairing.Gt.is_one params (Pairing.Gt.pow params e_gg params.Params.q));
  let a = scalar params 31 and b = scalar params 32 in
  let pa = G1.mul params a g and pb = G1.mul params b g in
  let lhs = Pairing.tate params pa pb in
  let rhs = Pairing.Gt.pow params e_gg (Modular.mul a b params.Params.q) in
  Alcotest.(check bool) "e(aG,bG) = e(G,G)^ab" true (Pairing.Gt.equal params lhs rhs);
  (* bilinearity in each slot *)
  Alcotest.(check bool) "e(aG,Q) = e(G,Q)^a" true
    (Pairing.Gt.equal params
       (Pairing.tate params pa pb)
       (Pairing.Gt.pow params (Pairing.tate params g pb) a));
  Alcotest.(check bool) "symmetric" true
    (Pairing.Gt.equal params (Pairing.tate params pa pb) (Pairing.tate params pb pa));
  (* additivity: e(P1 + P2, Q) = e(P1,Q)·e(P2,Q) *)
  let sum = G1.add params pa pb in
  Alcotest.(check bool) "additive in first slot" true
    (Pairing.Gt.equal params
       (Pairing.tate params sum pb)
       (Pairing.Gt.mul params (Pairing.tate params pa pb) (Pairing.tate params pb pb)));
  Alcotest.(check bool) "infinity pairs to one" true
    (Pairing.Gt.is_one params (Pairing.tate params G1.infinity g))

let test_projective_matches_affine () =
  (* the optimized Jacobian Miller loop must agree with the affine
     reference everywhere, including identity inputs *)
  List.iter
    (fun params ->
      let g = G1.generator params in
      let rng = test_rng 41 in
      for _ = 1 to 5 do
        let a = Bigint.random_range rng Bigint.one params.Params.q in
        let b = Bigint.random_range rng Bigint.one params.Params.q in
        let pa = G1.mul params a g and pb = G1.mul params b g in
        Alcotest.(check bool) "projective = affine" true
          (Pairing.Gt.equal params (Pairing.tate params pa pb)
             (Pairing.tate_affine params pa pb))
      done;
      Alcotest.(check bool) "identity left" true
        (Pairing.Gt.equal params
           (Pairing.tate params G1.infinity g)
           (Pairing.tate_affine params G1.infinity g));
      Alcotest.(check bool) "identity right" true
        (Pairing.Gt.equal params
           (Pairing.tate params g G1.infinity)
           (Pairing.tate_affine params g G1.infinity)))
    [ tiny; light ]

let test_product_pairing () =
  List.iter
    (fun params ->
      let g = G1.generator params in
      let rng = test_rng 43 in
      let pt () = G1.mul params (Bigint.random_range rng Bigint.one params.Params.q) g in
      let pairs = [ (pt (), pt ()); (pt (), pt ()); (pt (), pt ()) ] in
      let separate =
        List.fold_left
          (fun acc (p, q) -> Pairing.Gt.mul params acc (Pairing.tate params p q))
          (Pairing.Gt.one params) pairs
      in
      let product pairs =
        Pairing.tate_lines params
          (List.map (fun (p, q) -> (Pairing.lines_of params p, q)) pairs)
      in
      Alcotest.(check bool) "product = separate" true
        (Pairing.Gt.equal params (product pairs) separate);
      (* identity pairs contribute nothing *)
      Alcotest.(check bool) "identity pair skipped" true
        (Pairing.Gt.equal params
           (product ((G1.infinity, g) :: (g, G1.infinity) :: pairs))
           separate);
      Alcotest.(check bool) "empty product is one" true
        (Pairing.Gt.is_one params (product [])))
    [ tiny; light ]

(* GT has norm 1, so Gt.inv and a negative Gt.pow conjugate; the field
   inverse is the reference, on pairing values, their products and a
   tate_lines product *)
let test_gt_inverse_by_conjugation () =
  List.iter
    (fun params ->
      let fp = params.Params.fp in
      let rng = test_rng 47 in
      let pt () = G1.random params rng in
      let a = pt () and b = pt () and c = pt () in
      let e_ab = Pairing.tate params a b and e_cb = Pairing.tate params c b in
      let values =
        [
          e_ab;
          Pairing.tate params a c;
          Pairing.Gt.mul params e_ab e_cb;
          Pairing.tate_lines params
            [ (Pairing.lines_of params a, b); (Pairing.lines_of params c, a) ];
        ]
      in
      let exponents =
        [ Bigint.one; Bigint.two; params.Params.h; Bigint.random_range rng Bigint.one params.Params.q ]
      in
      List.iter
        (fun x ->
          Alcotest.(check bool) "Gt.inv x = Fq2.inv x" true
            (Fq2.equal fp (Pairing.Gt.inv params x) (Fq2.inv fp x));
          List.iter
            (fun e ->
              Alcotest.(check bool) "Gt.pow x (-e) = Fq2.inv (Gt.pow x e)" true
                (Fq2.equal fp
                   (Pairing.Gt.pow params x (Bigint.neg e))
                   (Fq2.inv fp (Pairing.Gt.pow params x e))))
            exponents)
        values)
    [ tiny; light ]

let test_pairing_counters () =
  Counters.reset ();
  let params = tiny in
  let g = G1.generator params in
  let before = Counters.snapshot () in
  ignore (Pairing.tate params g g);
  ignore (G1.mul params Bigint.two g);
  ignore (Pairing.Gt.pow params (Pairing.Gt.one params) Bigint.two);
  ignore (G1.hash_to_point params "x");
  let d = Counters.diff (Counters.snapshot ()) before in
  Alcotest.(check int) "pairings" 1 d.Counters.pairings;
  (* hash_to_point's internal cofactor clearing is deliberately NOT
     counted: it is part of the paper's H0 hash, not an exponentiation *)
  Alcotest.(check int) "g1 muls" 1 d.Counters.g1_mul;
  Alcotest.(check int) "gt exps" 1 d.Counters.gt_exp;
  Alcotest.(check int) "hashes" 1 d.Counters.hash_to_g1

let qcheck_tests =
  let params = tiny in
  let scalar_arb =
    QCheck.make ~print:Bigint.to_string
      (QCheck.Gen.map
         (fun seed -> Bigint.random_range (test_rng seed) Bigint.one params.Params.q)
         QCheck.Gen.int)
  in
  [
    QCheck.Test.make ~name:"bilinearity e(aG,bG)=e(G,G)^ab" ~count:10
      (QCheck.pair scalar_arb scalar_arb)
      (fun (a, b) ->
        let g = G1.generator params in
        let lhs =
          Pairing.tate params (G1.mul params a g) (G1.mul params b g)
        in
        let rhs =
          Pairing.Gt.pow params (Pairing.tate params g g)
            (Modular.mul a b params.Params.q)
        in
        Pairing.Gt.equal params lhs rhs);
    QCheck.Test.make ~name:"gt encode round trip" ~count:10 scalar_arb
      (fun a ->
        let g = G1.generator params in
        let e = Pairing.Gt.pow params (Pairing.tate params g g) a in
        match Pairing.Gt.decode params (Pairing.Gt.encode params e) with
        | Some e' -> Pairing.Gt.equal params e e'
        | None -> false);
    QCheck.Test.make ~name:"g1 scalars compose" ~count:10
      (QCheck.pair scalar_arb scalar_arb)
      (fun (a, b) ->
        let g = G1.generator params in
        G1.equal params
          (G1.mul params a (G1.mul params b g))
          (G1.mul params (Modular.mul a b params.Params.q) g));
  ]

(* --- decode, in_subgroup and hash_to_point on the cached field context,
   each against the generic composition it replaced --- *)

let reference_in_subgroup params pt =
  G1.is_infinity pt
  || (G1.on_curve params pt
     && G1.is_infinity (G1.mul params params.Params.q pt))

let reference_decode params s =
  let width = Params.group_element_bytes params - 1 in
  if String.length s <> width + 1 then None
  else
    match s.[0] with
    | '\x00' ->
      if String.for_all (fun c -> c = '\000') s then Some G1.infinity else None
    | '\x02' | '\x03' -> begin
      let p = params.Params.p in
      let x = Bigint.of_bytes_be (String.sub s 1 width) in
      if Bigint.compare x p >= 0 then None
      else
        match reference_root params x with
        | None -> None
        | Some y0 ->
          let want_even = s.[0] = '\x02' in
          let y = if Bigint.is_even y0 = want_even then y0 else Bigint.sub p y0 in
          let pt = G1.of_affine params ~x ~y in
          if G1.is_infinity (G1.mul params params.Params.q pt) then Some pt
          else None
    end
    | _ -> None

let reference_hash_to_point params msg =
  let p = params.Params.p in
  let width = Params.group_element_bytes params - 1 in
  let rec attempt counter =
    let seed =
      Peace_hash.Hmac.hkdf ~info:"peace-h2c" (msg ^ string_of_int counter) (width + 8)
    in
    let x = Bigint.erem (Bigint.of_bytes_be seed) p in
    match reference_root params x with
    | Some y when not (Bigint.is_zero y) ->
      let cleared = G1.mul params params.Params.h (G1.of_affine params ~x ~y) in
      if G1.is_infinity cleared then attempt (counter + 1) else cleared
    | Some _ | None -> attempt (counter + 1)
  in
  attempt 0

(* an on-curve point outside the q-subgroup: walk x up from [start] *)
let rec rogue_point params start =
  match reference_root params start with
  | Some y when not (Bigint.is_zero y) ->
    let pt = G1.of_affine params ~x:start ~y in
    if reference_in_subgroup params pt then rogue_point params (Bigint.succ start)
    else pt
  | Some _ | None -> rogue_point params (Bigint.succ start)

let same_decode params s =
  match (G1.decode params s, reference_decode params s) with
  | None, None -> true
  | Some a, Some b -> G1.encode params a = G1.encode params b && G1.equal params a b
  | Some _, None | None, Some _ -> false

let decode_tests params ~count =
  let name what = Printf.sprintf "%s (%s)" what params.Params.name in
  let width = Params.group_element_bytes params - 1 in
  let seed = QCheck.make ~print:string_of_int QCheck.Gen.int in
  let random_point seed = G1.random params (test_rng seed) in
  [
    QCheck.Test.make ~name:(name "decode x") ~count seed (fun seed ->
        let rng = test_rng seed in
        let prefix = if seed land 1 = 0 then "\x02" else "\x03" in
        (* full-width random bytes: some x land at or above p; x = 0 has
           the root 0, a 2-torsion point of either parity *)
        same_decode params (prefix ^ rng width)
        && same_decode params (prefix ^ String.make width '\000'));
    QCheck.Test.make ~name:(name "decode points") ~count seed (fun seed ->
        let pt = random_point seed in
        same_decode params (G1.encode params pt)
        && same_decode params (G1.encode params (G1.neg params pt)));
    QCheck.Test.make ~name:(name "decode rogue") ~count seed (fun seed ->
        let start = Bigint.random_below (test_rng seed) params.Params.p in
        let rogue = rogue_point params start in
        G1.decode params (G1.encode params rogue) = None
        && same_decode params (G1.encode params rogue)
        && same_decode params (G1.encode params (G1.neg params rogue)));
    QCheck.Test.make ~name:(name "in_subgroup") ~count seed (fun seed ->
        let start = Bigint.random_below (test_rng seed) params.Params.p in
        let rogue = rogue_point params start and pt = random_point seed in
        List.for_all
          (fun p -> G1.in_subgroup params p = reference_in_subgroup params p)
          [ rogue; pt; G1.infinity ]);
    QCheck.Test.make ~name:(name "hash_to_point") ~count seed (fun seed ->
        let msg = Printf.sprintf "h2p-%d" seed in
        let got = G1.hash_to_point params msg in
        G1.encode params got = G1.encode params (reference_hash_to_point params msg));
  ]

(* --- the wNAF/Straus engine and the Miller-line tables, each against a
   slow reference: [Params.affine_mul] (textbook double-and-add on
   integers), [mul] plus [add], and the two Miller loops --- *)

let reference_mul params k pt =
  match G1.to_affine params pt with
  | None -> G1.infinity
  | Some xy -> (
    match Params.affine_mul params.Params.p k (Some xy) with
    | None -> G1.infinity
    | Some (x, y) -> G1.of_affine params ~x ~y)

(* A point of order 4 and the 2-torsion point (0, 0): the tangent at the
   first passes through −2S = (0, 0), so the Miller value of ê(S, (0, 0))
   is 0, which pairs to 1. #E(F_p) = p + 1, so ((p + 1)/4)·R has order
   dividing 4 for any curve point R. *)
let two_torsion params = G1.of_affine params ~x:Bigint.zero ~y:Bigint.zero

let rec order_four params start =
  let quarter = Bigint.div (Bigint.succ params.Params.p) (Bigint.of_int 4) in
  let s = G1.mul params quarter (rogue_point params start) in
  if G1.is_infinity (G1.double params s) then order_four params (Bigint.succ start) else s

(* A point of order dividing d, for each d ≤ 300 that divides h: the
   curve's group is cyclic of order p + 1 = q·h, so ((p + 1)/d)·R is one
   for any curve point R *)
let small_order_points params r =
  List.filter_map
    (fun d ->
      let d = Bigint.of_int d in
      if Bigint.is_zero (Bigint.erem params.Params.h d) then
        Some (G1.mul params (Bigint.div (Bigint.succ params.Params.p) d) r)
      else None)
    (List.init 299 (fun i -> i + 2))

let engine_tests params ~count =
  let name what = Printf.sprintf "%s (%s)" what params.Params.name in
  let q = params.Params.q in
  let seed = QCheck.make ~print:string_of_int QCheck.Gen.int in
  let subgroup_point seed = G1.random params (test_rng seed) in
  let rogue seed = rogue_point params (Bigint.random_below (test_rng seed) params.Params.p) in
  let fixed_scalars =
    [ Bigint.zero; Bigint.one; Bigint.two; Bigint.pred q; q; Bigint.succ q; params.Params.h ]
  in
  let same = G1.equal params in
  [
    QCheck.Test.make ~name:(name "mul = affine_mul") ~count seed (fun seed ->
        let rng = test_rng seed in
        let scalars =
          fixed_scalars
          @ [
              Bigint.random_below rng q;
              Bigint.random_bits rng (Bigint.num_bits params.Params.p);
              Bigint.of_int (1 + (abs seed mod 64));
            ]
        in
        List.for_all
          (fun pt ->
            List.for_all (fun k -> same (G1.mul params k pt) (reference_mul params k pt)) scalars)
          [ subgroup_point seed; rogue seed; G1.infinity ]);
    QCheck.Test.make ~name:(name "mul2 = mul + add") ~count seed (fun seed ->
        let rng = test_rng seed in
        let p = subgroup_point seed and r = rogue seed in
        let a = Bigint.random_below rng q and b = Bigint.random_below rng q in
        let via_mul a p b q = G1.add params (G1.mul params a p) (G1.mul params b q) in
        let cases =
          [
            (a, p, b, subgroup_point (seed + 1));
            (a, p, b, p) (* P = Q *);
            (a, p, b, G1.neg params p) (* P = −Q *);
            (a, p, a, G1.neg params p) (* a·P − a·P = O *);
            (a, p, Bigint.sub q a, p) (* a·P + (q − a)·P = O *);
            (a, G1.infinity, b, p);
            (a, p, b, G1.infinity);
            (Bigint.zero, p, Bigint.zero, p);
            (Bigint.zero, p, b, p);
            (a, r, b, p) (* a term outside G_q *);
            (params.Params.h, r, Bigint.one, r);
          ]
        in
        List.for_all (fun (a, p, b, q) -> same (G1.mul2 params a p b q) (via_mul a p b q)) cases
        && G1.is_infinity (G1.mul2 params a p a (G1.neg params p)));
    QCheck.Test.make ~name:(name "lines = tate = tate_affine") ~count seed (fun seed ->
        let pts = List.init 3 (fun i -> subgroup_point (seed + i)) in
        let args = G1.infinity :: pts in
        let product pairs =
          List.fold_left
            (fun acc (p, q) -> Pairing.Gt.mul params acc (Pairing.tate params p q))
            (Pairing.Gt.one params) pairs
        in
        let with_lines pairs =
          Pairing.tate_lines params (List.map (fun (p, q) -> (Pairing.lines_of params p, q)) pairs)
        in
        (* every single pair, identities included, against both loops *)
        List.for_all
          (fun p ->
            List.for_all
              (fun q ->
                let e = with_lines [ (p, q) ] in
                Pairing.Gt.equal params e (Pairing.tate params p q)
                && Pairing.Gt.equal params e (Pairing.tate_affine params p q))
              args)
          args
        (* products of two and three pairs, one of them with an identity *)
        && List.for_all
             (fun pairs -> Pairing.Gt.equal params (with_lines pairs) (product pairs))
             [
               [ (List.nth pts 0, List.nth pts 1); (List.nth pts 2, List.nth pts 0) ];
               [
                 (List.nth pts 0, List.nth pts 1);
                 (List.nth pts 1, List.nth pts 2);
                 (List.nth pts 2, List.nth pts 0);
               ];
               [ (List.nth pts 0, G1.infinity); (G1.infinity, List.nth pts 1); (List.nth pts 2, List.nth pts 2) ];
             ]);
    QCheck.Test.make ~name:(name "lines off the subgroup") ~count seed (fun seed ->
        (* arguments outside G_q walk trajectories that order-q points
           never see: a point of small order meets O + P, T = P, T = −P
           and Y = 0 mid-loop, where an order-q point meets T = −P only at
           its last step. Both consumers of the walk must draw the affine
           loop's lines there *)
        let r = rogue seed and p = subgroup_point seed in
        let args = Array.of_list (two_torsion params :: r :: p :: small_order_points params r) in
        let n = Array.length args in
        let agree (a, b) =
          let e = Pairing.tate_affine params a b in
          Pairing.Gt.equal params (Pairing.tate params a b) e
          && Pairing.Gt.equal params (Pairing.tate_lines params [ (Pairing.lines_of params a, b) ]) e
        in
        List.for_all agree
          ([ (r, p); (p, r); (r, r) ] @ List.init n (fun i -> (args.(i), args.((i + abs seed) mod n)))));
  ]

let batch_tests params ~count =
  let name what = Printf.sprintf "%s (%s)" what params.Params.name in
  let seed = QCheck.make ~print:string_of_int QCheck.Gen.int in
  let subgroup_point seed = G1.random params (test_rng seed) in
  [
    QCheck.Test.make ~name:(name "add_batch = pairwise add") ~count seed (fun seed ->
        let p = subgroup_point seed in
        let r = rogue_point params (Bigint.random_below (test_rng seed) params.Params.p) in
        let t = two_torsion params in
        let qs =
          [|
            subgroup_point (seed + 1);
            G1.infinity;
            p;
            G1.neg params p;
            subgroup_point (seed + 2);
            r;
            p;
            t;
            subgroup_point (seed + 3);
          |]
        in
        let pairwise p qs =
          let got = G1.add_batch params p qs in
          Array.length got = Array.length qs
          && Array.for_all2 (fun g q -> G1.equal params g (G1.add params p q)) got qs
        in
        List.for_all (fun p -> pairwise p qs && pairwise p [||]) [ p; G1.infinity; r; t ]);
    QCheck.Test.make ~name:(name "lines_equal = Gt.equal tate_lines") ~count seed (fun seed ->
        let p = subgroup_point seed and q = subgroup_point (seed + 1) in
        let wrong = Pairing.tate params p p in
        let agrees p q =
          let lines = Pairing.lines_of params p in
          let e = Pairing.tate_lines params [ (lines, q) ] in
          List.for_all
            (fun target ->
              Pairing.lines_equal params lines q target = Pairing.Gt.equal params e target)
            [ Pairing.Gt.one params; e; wrong; Pairing.Gt.mul params e wrong ]
        in
        agrees p q && agrees p G1.infinity && agrees G1.infinity q
        && agrees (order_four params (Bigint.of_int (2 + (abs seed mod 1000)))) (two_torsion params));
  ]

let test_engine_counters () =
  let params = tiny in
  let g = G1.generator params in
  let count f =
    Counters.reset ();
    let before = Counters.snapshot () in
    f ();
    Counters.diff (Counters.snapshot ()) before
  in
  let d = count (fun () -> ignore (G1.mul2 params Bigint.two g Bigint.one g)) in
  Alcotest.(check int) "mul2 counts two exponentiations" 2 d.Counters.g1_mul;
  let lines = ref None in
  let d = count (fun () -> lines := Some (Pairing.lines_of params g)) in
  Alcotest.(check int) "a table counts nothing" 0
    (d.Counters.pairings + d.Counters.g1_mul + d.Counters.gt_exp);
  let lines = Option.get !lines in
  let d =
    count (fun () -> ignore (Pairing.tate_lines params [ (lines, g); (lines, G1.infinity) ]))
  in
  Alcotest.(check int) "one pairing per pair" 2 d.Counters.pairings;
  let d = count (fun () -> ignore (Pairing.lines_equal params lines g (Pairing.Gt.one params))) in
  Alcotest.(check int) "a line test is one pairing" 1 d.Counters.pairings

let suite =
  [
    ( "params",
      [
        Alcotest.test_case "presets valid" `Quick test_params_valid;
        Alcotest.test_case "generation" `Quick test_params_generate;
        Alcotest.test_case "generation golden" `Quick test_params_generate_golden;
      ] );
    ( "g1",
      [
        Alcotest.test_case "group laws" `Quick test_g1_group_laws;
        Alcotest.test_case "encoding" `Quick test_g1_encoding;
        Alcotest.test_case "hash to point" `Quick test_hash_to_point;
        Alcotest.test_case "decode rejects non-subgroup" `Quick
          test_decode_rejects_nonsubgroup;
      ] );
    ("fq2", [ Alcotest.test_case "field axioms" `Quick test_fq2_field_axioms ]);
    ( "pairing",
      [
        Alcotest.test_case "bilinearity (tiny)" `Quick (test_bilinearity tiny);
        Alcotest.test_case "bilinearity (light)" `Slow (test_bilinearity light);
        Alcotest.test_case "projective = affine" `Quick test_projective_matches_affine;
        Alcotest.test_case "product pairing" `Quick test_product_pairing;
        Alcotest.test_case "gt inverse by conjugation" `Quick test_gt_inverse_by_conjugation;
        Alcotest.test_case "gt membership" `Quick (fun () ->
            let params = tiny in
            let g = G1.generator params in
            let e = Pairing.tate params g g in
            Alcotest.(check bool) "pairing output in subgroup" true
              (Pairing.Gt.in_subgroup params e);
            Alcotest.(check bool) "one in subgroup" true
              (Pairing.Gt.in_subgroup params (Pairing.Gt.one params));
            (* a random Fq2 element is (overwhelmingly) outside *)
            let junk =
              Fq2.of_bigints params.Params.fp (Bigint.of_int 12345)
                (Bigint.of_int 678)
            in
            Alcotest.(check bool) "junk outside subgroup" false
              (Pairing.Gt.in_subgroup params junk));
        Alcotest.test_case "counters" `Quick test_pairing_counters;
        Alcotest.test_case "mul2 and line counters" `Quick test_engine_counters;
      ] );
    ("pairing-properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ( "g1-cached-field",
      List.map QCheck_alcotest.to_alcotest
        (decode_tests tiny ~count:100 @ decode_tests light ~count:8) );
    ( "wnaf-and-lines",
      List.map QCheck_alcotest.to_alcotest
        (engine_tests tiny ~count:40 @ engine_tests light ~count:2) );
    ( "batch-add-and-line-test",
      List.map QCheck_alcotest.to_alcotest
        (batch_tests tiny ~count:40 @ batch_tests light ~count:2) );
  ]

let () = Alcotest.run "peace-pairing" suite
