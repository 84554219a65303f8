(* Group-signature tests: correctness, anonymity-related sanity checks,
   revocation (VLR and fast-table), opening, serialisation, and the vanilla
   BS04 ablation (grp = 0). *)

open Peace_bigint
open Peace_pairing
open Peace_groupsig

let tiny = Lazy.force Params.tiny

let test_rng seed =
  let state = ref seed in
  fun n ->
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      state := (!state * 2685821657736338717) + 1442695040888963407;
      Bytes.set b i (Char.chr ((!state lsr 32) land 0xff))
    done;
    Bytes.unsafe_to_string b

let vres = Alcotest.testable Group_sig.pp_verify_result Group_sig.equal_verify_result

let issuer = Group_sig.setup tiny (test_rng 1)
let gpk = issuer.Group_sig.gpk
let grp_a = Bigint.of_int 1001
let grp_b = Bigint.of_int 2002
let alice = Group_sig.issue issuer ~grp:grp_a (test_rng 2)
let bob = Group_sig.issue issuer ~grp:grp_a (test_rng 3)
let carol = Group_sig.issue issuer ~grp:grp_b (test_rng 4)

let test_key_validity () =
  Alcotest.(check bool) "alice key valid" true (Group_sig.key_is_valid gpk alice);
  Alcotest.(check bool) "bob key valid" true (Group_sig.key_is_valid gpk bob);
  Alcotest.(check bool) "carol key valid" true (Group_sig.key_is_valid gpk carol);
  (* a forged key must not validate *)
  let forged = { alice with Group_sig.x = Bigint.succ alice.Group_sig.x } in
  Alcotest.(check bool) "forged key invalid" false (Group_sig.key_is_valid gpk forged)

let test_sign_verify () =
  let rng = test_rng 5 in
  let msg = "auth transcript: g^rj | g^rR | ts2" in
  let signature = Group_sig.sign gpk alice ~rng ~msg in
  Alcotest.check vres "verifies" Group_sig.Valid
    (Group_sig.verify gpk ~msg signature);
  Alcotest.check vres "wrong message" Group_sig.Invalid_proof
    (Group_sig.verify gpk ~msg:"other" signature);
  (* each signer in each group verifies *)
  List.iter
    (fun key ->
      let s = Group_sig.sign gpk key ~rng ~msg in
      Alcotest.check vres "member verifies" Group_sig.Valid
        (Group_sig.verify gpk ~msg s))
    [ bob; carol ]

(* a seeded signature and e(g1, g2), pinned to bytes recorded under other
   exponentiation and GT-inversion algorithms: the arithmetic may change
   how it computes, never what *)
let test_golden_signature () =
  Alcotest.(check string) "e(g1, g2)" "9ebafc04c6dfc684be3b822fbd513cfc0c4c8b3ee03b"
    (Peace_hash.Sha256.to_hex (Pairing.Gt.encode tiny gpk.Group_sig.e_g1_g2));
  let s = Group_sig.sign gpk alice ~rng:(test_rng 77) ~msg:"golden" in
  Alcotest.(check string) "signature digest"
    "2cea8ade8eabee32bc956dd92b3659aac75343688e44cdeed4af519c5bfdb4cd"
    (Peace_hash.Sha256.to_hex (Peace_hash.Sha256.digest (Group_sig.signature_to_bytes gpk s)));
  Alcotest.check vres "verifies" Group_sig.Valid (Group_sig.verify gpk ~msg:"golden" s)

let test_tampering () =
  let rng = test_rng 6 in
  let msg = "tamper target" in
  let s = Group_sig.sign gpk alice ~rng ~msg in
  let q = tiny.Params.q in
  let bump v = Modular.add v Bigint.one q in
  List.iter
    (fun (label, s') ->
      Alcotest.check vres label Group_sig.Invalid_proof
        (Group_sig.verify gpk ~msg s'))
    [
      ("bumped c", { s with Group_sig.c = bump s.Group_sig.c });
      ("bumped s_alpha", { s with Group_sig.s_alpha = bump s.Group_sig.s_alpha });
      ("bumped s_x", { s with Group_sig.s_x = bump s.Group_sig.s_x });
      ("bumped s_delta", { s with Group_sig.s_delta = bump s.Group_sig.s_delta });
      ("altered nonce",
       { s with Group_sig.r_nonce = String.map (fun c -> Char.chr (Char.code c lxor 1)) s.Group_sig.r_nonce });
      ("swapped T1/T2", { s with Group_sig.t1 = s.Group_sig.t2; t2 = s.Group_sig.t1 });
      ("oversized scalar", { s with Group_sig.s_x = q });
    ]

let test_revocation () =
  let rng = test_rng 7 in
  let msg = "revocation check" in
  let s_alice = Group_sig.sign gpk alice ~rng ~msg in
  let s_bob = Group_sig.sign gpk bob ~rng ~msg in
  let url = [ Group_sig.token_of_gsk alice ] in
  Alcotest.check vres "revoked signer detected" Group_sig.Revoked
    (Group_sig.verify gpk ~url ~msg s_alice);
  Alcotest.check vres "other member unaffected" Group_sig.Valid
    (Group_sig.verify gpk ~url ~msg s_bob);
  Alcotest.check vres "empty URL accepts" Group_sig.Valid
    (Group_sig.verify gpk ~url:[] ~msg s_alice);
  (* every signature by a revoked key is caught, regardless of freshness *)
  let s_alice2 = Group_sig.sign gpk alice ~rng ~msg:"second session" in
  Alcotest.check vres "second session also caught" Group_sig.Revoked
    (Group_sig.verify gpk ~url ~msg:"second session" s_alice2);
  (* is_signer agrees *)
  Alcotest.(check bool) "is_signer alice" true
    (Group_sig.is_signer gpk ~msg s_alice (Group_sig.token_of_gsk alice));
  Alcotest.(check bool) "is_signer bob-token" false
    (Group_sig.is_signer gpk ~msg s_alice (Group_sig.token_of_gsk bob))

let test_open () =
  let rng = test_rng 8 in
  let msg = "audit me" in
  let grt =
    [
      (Group_sig.token_of_gsk alice, "group-a/key-0");
      (Group_sig.token_of_gsk bob, "group-a/key-1");
      (Group_sig.token_of_gsk carol, "group-b/key-0");
    ]
  in
  let s = Group_sig.sign gpk bob ~rng ~msg in
  (match Group_sig.open_signature gpk ~grt ~msg s with
  | Some tag -> Alcotest.(check string) "opens to bob" "group-a/key-1" tag
  | None -> Alcotest.fail "open failed");
  (* opening an invalid signature fails closed *)
  let bad = { s with Group_sig.c = Bigint.zero } in
  Alcotest.(check bool) "invalid sig does not open" true
    (Group_sig.open_signature gpk ~grt ~msg bad = None);
  (* a signer not in grt opens to nothing *)
  let outsider = Group_sig.issue issuer ~grp:(Bigint.of_int 777) (test_rng 9) in
  let s_out = Group_sig.sign gpk outsider ~rng ~msg in
  Alcotest.(check bool) "unknown signer" true
    (Group_sig.open_signature gpk ~grt ~msg s_out = None)

let test_unlinkability_shape () =
  (* Two signatures by the same signer on the same message must differ in
     every randomised component (statistical smoke test of unlinkability). *)
  let rng = test_rng 10 in
  let msg = "same message" in
  let s1 = Group_sig.sign gpk alice ~rng ~msg in
  let s2 = Group_sig.sign gpk alice ~rng ~msg in
  let params = tiny in
  Alcotest.(check bool) "nonces differ" false (s1.Group_sig.r_nonce = s2.Group_sig.r_nonce);
  Alcotest.(check bool) "T1 differs" false
    (G1.equal params s1.Group_sig.t1 s2.Group_sig.t1);
  Alcotest.(check bool) "T2 differs" false
    (G1.equal params s1.Group_sig.t2 s2.Group_sig.t2);
  Alcotest.(check bool) "T2 never equals A" false
    (G1.equal params s1.Group_sig.t2 (Group_sig.token_of_gsk alice));
  (* both open to the same token, so accountability is preserved *)
  let grt = [ (Group_sig.token_of_gsk alice, "a") ] in
  Alcotest.(check bool) "both open to alice" true
    (Group_sig.open_signature gpk ~grt ~msg s1 = Some "a"
    && Group_sig.open_signature gpk ~grt ~msg s2 = Some "a")

let test_fast_revocation () =
  let rng = test_rng 11 in
  let fast_issuer = Group_sig.setup ~base_mode:Group_sig.Fixed_bases tiny (test_rng 12) in
  let fgpk = fast_issuer.Group_sig.gpk in
  let dave = Group_sig.issue fast_issuer ~grp:grp_a rng in
  let erin = Group_sig.issue fast_issuer ~grp:grp_b rng in
  let msg = "fast revocation" in
  let s_dave = Group_sig.sign fgpk dave ~rng ~msg in
  let s_erin = Group_sig.sign fgpk erin ~rng ~msg in
  let table = Group_sig.build_fast_table fgpk [ Group_sig.token_of_gsk dave ] in
  Alcotest.(check int) "table size" 1 (Group_sig.fast_table_size table);
  Alcotest.check vres "fast: revoked caught" Group_sig.Revoked
    (Group_sig.verify_fast fgpk table ~msg s_dave);
  Alcotest.check vres "fast: valid passes" Group_sig.Valid
    (Group_sig.verify_fast fgpk table ~msg s_erin);
  (* agreement with the linear scan *)
  Alcotest.check vres "scan agrees (revoked)" Group_sig.Revoked
    (Group_sig.verify fgpk ~url:[ Group_sig.token_of_gsk dave ] ~msg s_dave);
  (* fast table on a per-message gpk is rejected *)
  Alcotest.check_raises "per-message gpk rejected"
    (Invalid_argument "Group_sig.build_fast_table: gpk must use Fixed_bases")
    (fun () -> ignore (Group_sig.build_fast_table gpk []))

let test_fast_revocation_empty_table () =
  (* an empty URL table: nobody is revoked, but proof checking still runs *)
  let rng = test_rng 15 in
  let fast_issuer = Group_sig.setup ~base_mode:Group_sig.Fixed_bases tiny (test_rng 16) in
  let fgpk = fast_issuer.Group_sig.gpk in
  let member = Group_sig.issue fast_issuer ~grp:grp_a rng in
  let msg = "empty table" in
  let s = Group_sig.sign fgpk member ~rng ~msg in
  let empty = Group_sig.build_fast_table fgpk [] in
  Alcotest.(check int) "table size 0" 0 (Group_sig.fast_table_size empty);
  Alcotest.check vres "valid passes an empty table" Group_sig.Valid
    (Group_sig.verify_fast fgpk empty ~msg s);
  Alcotest.check vres "wrong message still rejected" Group_sig.Invalid_proof
    (Group_sig.verify_fast fgpk empty ~msg:"other" s);
  let forged =
    { s with Group_sig.c = Modular.add s.Group_sig.c Bigint.one tiny.Params.q }
  in
  Alcotest.check vres "forged proof still rejected" Group_sig.Invalid_proof
    (Group_sig.verify_fast fgpk empty ~msg forged);
  Alcotest.check vres "agrees with the empty-URL scan" Group_sig.Valid
    (Group_sig.verify fgpk ~url:[] ~msg s)

let test_serialisation () =
  let rng = test_rng 13 in
  let msg = "wire format" in
  let s = Group_sig.sign gpk alice ~rng ~msg in
  let bytes = Group_sig.signature_to_bytes gpk s in
  Alcotest.(check int) "measured size" (Group_sig.signature_size gpk)
    (String.length bytes);
  (match Group_sig.signature_of_bytes gpk bytes with
  | None -> Alcotest.fail "parse failed"
  | Some s' ->
    Alcotest.check vres "parsed signature verifies" Group_sig.Valid
      (Group_sig.verify gpk ~msg s'));
  Alcotest.(check bool) "truncated rejected" true
    (Group_sig.signature_of_bytes gpk (String.sub bytes 0 10) = None);
  Alcotest.(check bool) "padded rejected" true
    (Group_sig.signature_of_bytes gpk (bytes ^ "\x00") = None);
  (* paper shape: 2 group elements + 5 scalars *)
  Alcotest.(check int) "paper size is 1192 bits" 1192 Group_sig.paper_signature_bits

let test_vanilla_bs04 () =
  (* grp = 0 recovers plain Boneh-Shacham; signatures interoperate with the
     same verifier and revocation machinery *)
  let rng = test_rng 14 in
  let member = Group_sig.issue issuer ~grp:Bigint.zero rng in
  Alcotest.(check bool) "key valid" true (Group_sig.key_is_valid gpk member);
  let msg = "vanilla bs04" in
  let s = Group_sig.sign gpk member ~rng ~msg in
  Alcotest.check vres "verifies" Group_sig.Valid (Group_sig.verify gpk ~msg s);
  Alcotest.check vres "revocable" Group_sig.Revoked
    (Group_sig.verify gpk ~url:[ Group_sig.token_of_gsk member ] ~msg s)

let test_issue_edge_cases () =
  (* issue_with_x must reject x = -(gamma + grp) *)
  let q = tiny.Params.q in
  let grp = Bigint.of_int 42 in
  let bad_x = Modular.sub Bigint.zero (Modular.add issuer.Group_sig.gamma grp q) q in
  Alcotest.(check bool) "degenerate x rejected" true
    (Group_sig.issue_with_x issuer ~grp ~x:bad_x = None);
  (* any other x works and produces a valid key *)
  let ok_x = Modular.add bad_x Bigint.one q in
  match Group_sig.issue_with_x issuer ~grp ~x:ok_x with
  | Some k -> Alcotest.(check bool) "valid key" true (Group_sig.key_is_valid gpk k)
  | None -> Alcotest.fail "issue failed"

let test_cross_group_opening () =
  (* the opener learns the group (via the token), not which key in another
     group: verify tokens are distinct across members and groups *)
  let ta = Group_sig.token_of_gsk alice in
  let tb = Group_sig.token_of_gsk bob in
  let tc = Group_sig.token_of_gsk carol in
  Alcotest.(check bool) "alice/bob tokens differ" false (G1.equal tiny ta tb);
  Alcotest.(check bool) "alice/carol tokens differ" false (G1.equal tiny ta tc)

let test_key_storage_round_trips () =
  (* the CLI's textual key formats *)
  (match Group_sig.gpk_of_text (Group_sig.gpk_to_text gpk) with
  | Ok gpk' ->
    (* a signature made under the original gpk verifies under the parsed one *)
    let rng = test_rng 51 in
    let s = Group_sig.sign gpk alice ~rng ~msg:"storage" in
    Alcotest.check vres "parsed gpk verifies" Group_sig.Valid
      (Group_sig.verify gpk' ~msg:"storage" s)
  | Error e -> Alcotest.failf "gpk round trip: %s" e);
  (match Group_sig.gsk_of_text gpk (Group_sig.gsk_to_text gpk alice) with
  | Ok alice' ->
    Alcotest.(check bool) "parsed key valid" true (Group_sig.key_is_valid gpk alice');
    let rng = test_rng 52 in
    let s = Group_sig.sign gpk alice' ~rng ~msg:"m" in
    Alcotest.check vres "parsed key signs" Group_sig.Valid
      (Group_sig.verify gpk ~msg:"m" s)
  | Error e -> Alcotest.failf "gsk round trip: %s" e);
  (match Group_sig.issuer_of_text (Group_sig.issuer_to_text issuer) with
  | Ok issuer' ->
    Alcotest.(check bool) "gamma preserved" true
      (Bigint.equal issuer'.Group_sig.gamma issuer.Group_sig.gamma)
  | Error e -> Alcotest.failf "issuer round trip: %s" e);
  (match
     Group_sig.token_of_text gpk
       (Group_sig.token_to_text gpk (Group_sig.token_of_gsk alice))
   with
  | Ok token ->
    Alcotest.(check bool) "token round trip" true
      (G1.equal tiny token (Group_sig.token_of_gsk alice))
  | Error e -> Alcotest.failf "token round trip: %s" e);
  (* garbage is rejected, not crashed on *)
  Alcotest.(check bool) "garbage gpk" true
    (Result.is_error (Group_sig.gpk_of_text "nonsense"));
  Alcotest.(check bool) "garbage gsk" true
    (Result.is_error (Group_sig.gsk_of_text gpk "peace-gsk-v1\nzz\nzz\nzz"));
  (* a FOREIGN key in valid format fails the SDH check against our gpk *)
  let other_issuer = Group_sig.setup tiny (test_rng 53) in
  let foreign = Group_sig.issue other_issuer ~grp:Bigint.one (test_rng 54) in
  Alcotest.(check bool) "foreign key rejected" true
    (Result.is_error
       (Group_sig.gsk_of_text gpk
          (Group_sig.gsk_to_text other_issuer.Group_sig.gpk foreign)))

let test_bitflip_never_verifies () =
  (* sampled single-bit flips across the serialized signature *)
  let rng = test_rng 55 in
  let msg = "bitflip target" in
  let s = Group_sig.sign gpk alice ~rng ~msg in
  let bytes = Group_sig.signature_to_bytes gpk s in
  let n = String.length bytes in
  let step = Stdlib.max 1 (n / 24) in
  let i = ref 0 in
  while !i < n do
    let mutated = Bytes.of_string bytes in
    Bytes.set mutated !i (Char.chr (Char.code bytes.[!i] lxor (1 lsl (!i mod 8))));
    (match Group_sig.signature_of_bytes gpk (Bytes.to_string mutated) with
    | None -> () (* decoding already rejects (e.g. point not on curve) *)
    | Some s' ->
      if Group_sig.verify gpk ~msg s' = Group_sig.Valid then
        Alcotest.failf "bit flip at byte %d accepted" !i);
    i := !i + step
  done

let test_fixed_bases_linkability () =
  (* The quantified cost of the paper's §V-C fast-revocation trade-off:
     with FIXED bases, e(T2,û)/e(T1,v̂) = e(A,û) is constant per signer, so
     ANY observer links all of a user's signatures without knowing A. With
     per-message bases the same quantity is message-dependent junk. *)
  let rng = test_rng 61 in
  let linker _gpk (s : Group_sig.signature) u v =
    Pairing.Gt.mul tiny
      (Pairing.tate tiny s.Group_sig.t2 u)
      (Pairing.Gt.inv tiny (Pairing.tate tiny s.Group_sig.t1 v))
  in
  (* fixed-bases mode: linkable *)
  let fi = Group_sig.setup ~base_mode:Group_sig.Fixed_bases tiny (test_rng 62) in
  let fgpk = fi.Group_sig.gpk in
  let u = fgpk.Group_sig.fixed_u and v = fgpk.Group_sig.fixed_v in
  let k1 = Group_sig.issue fi ~grp:grp_a rng in
  let k2 = Group_sig.issue fi ~grp:grp_a rng in
  let s1a = Group_sig.sign fgpk k1 ~rng ~msg:"message one" in
  let s1b = Group_sig.sign fgpk k1 ~rng ~msg:"message two" in
  let s2 = Group_sig.sign fgpk k2 ~rng ~msg:"message three" in
  Alcotest.(check bool) "same signer links (fixed bases)" true
    (Pairing.Gt.equal tiny (linker fgpk s1a u v) (linker fgpk s1b u v));
  Alcotest.(check bool) "different signers do not collide" false
    (Pairing.Gt.equal tiny (linker fgpk s1a u v) (linker fgpk s2 u v));
  (* per-message mode: the linking quantity differs even for one signer,
     because (û,v̂) change per signature; recompute with each sig's bases
     is impossible for an outsider without knowing A *)
  let s3 = Group_sig.sign gpk alice ~rng ~msg:"m1" in
  let s4 = Group_sig.sign gpk alice ~rng ~msg:"m2" in
  (* the observer has no fixed bases; using any FIXED guess of (u,v)
     yields unrelated values *)
  let guess_u = gpk.Group_sig.fixed_u and guess_v = gpk.Group_sig.fixed_v in
  Alcotest.(check bool) "per-message mode unlinkable via this attack" false
    (Pairing.Gt.equal tiny (linker gpk s3 guess_u guess_v)
       (linker gpk s4 guess_u guess_v))

(* --- BBS04 baseline --- *)

let bbs_issuer, bbs_opener = Bbs04.setup tiny (test_rng 71)
let bbs_gpk = bbs_issuer.Bbs04.gpk
let bbs_alice = Bbs04.issue bbs_issuer (test_rng 72)
let bbs_bob = Bbs04.issue bbs_issuer (test_rng 73)

let test_bbs04_sign_verify () =
  let rng = test_rng 74 in
  let msg = "bbs04 check" in
  let s = Bbs04.sign bbs_gpk bbs_alice ~rng ~msg in
  Alcotest.(check bool) "verifies" true (Bbs04.verify bbs_gpk ~msg s);
  Alcotest.(check bool) "wrong message" false (Bbs04.verify bbs_gpk ~msg:"x" s);
  let q = tiny.Params.q in
  Alcotest.(check bool) "tampered s_x" false
    (Bbs04.verify bbs_gpk ~msg
       { s with Bbs04.s_x = Modular.add s.Bbs04.s_x Bigint.one q });
  Alcotest.(check bool) "tampered T3" false
    (Bbs04.verify bbs_gpk ~msg { s with Bbs04.t3 = bbs_gpk.Bbs04.h });
  Alcotest.(check bool) "oversized scalar rejected" false
    (Bbs04.verify bbs_gpk ~msg { s with Bbs04.s_beta = q });
  (* signatures from both members verify *)
  let s2 = Bbs04.sign bbs_gpk bbs_bob ~rng ~msg in
  Alcotest.(check bool) "second member verifies" true (Bbs04.verify bbs_gpk ~msg s2)

let test_bbs04_open () =
  let rng = test_rng 75 in
  let s_alice = Bbs04.sign bbs_gpk bbs_alice ~rng ~msg:"m" in
  let s_alice2 = Bbs04.sign bbs_gpk bbs_alice ~rng ~msg:"m2" in
  let s_bob = Bbs04.sign bbs_gpk bbs_bob ~rng ~msg:"m" in
  let opened = Bbs04.open_signature bbs_gpk bbs_opener s_alice in
  Alcotest.(check bool) "opens to alice's A" true
    (G1.equal tiny opened bbs_alice.Bbs04.a);
  Alcotest.(check bool) "second sig opens to same A" true
    (G1.equal tiny (Bbs04.open_signature bbs_gpk bbs_opener s_alice2)
       bbs_alice.Bbs04.a);
  Alcotest.(check bool) "bob's opens to bob" true
    (G1.equal tiny (Bbs04.open_signature bbs_gpk bbs_opener s_bob)
       bbs_bob.Bbs04.a);
  (* without the opener key, the T-values alone do not separate signers:
     both signatures are valid and share no common component *)
  Alcotest.(check bool) "T1 differs across signatures" false
    (G1.equal tiny s_alice.Bbs04.t1 s_alice2.Bbs04.t1);
  (* the paper's point: the opener deanonymises EVERYTHING — including
     sessions nobody disputed. PEACE's VLR design avoids this entity. *)
  Alcotest.(check int) "signature size = 3 G1 + 6 scalars"
    ((3 * Params.group_element_bytes tiny) + (6 * 10))
    (Bbs04.signature_size bbs_gpk);
  Alcotest.(check int) "serialisation length" (Bbs04.signature_size bbs_gpk)
    (String.length (Bbs04.signature_to_bytes bbs_gpk s_alice))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"sign/verify round trip" ~count:8 QCheck.small_string
      (fun msg ->
        let rng = test_rng (String.length msg + 100) in
        let s = Group_sig.sign gpk alice ~rng ~msg in
        Group_sig.verify gpk ~msg s = Group_sig.Valid);
    QCheck.Test.make ~name:"serialisation round trip" ~count:8 QCheck.small_string
      (fun msg ->
        let rng = test_rng (String.length msg + 200) in
        let s = Group_sig.sign gpk bob ~rng ~msg in
        match Group_sig.signature_of_bytes gpk (Group_sig.signature_to_bytes gpk s) with
        | Some s' -> Group_sig.verify gpk ~msg s' = Group_sig.Valid
        | None -> false);
    QCheck.Test.make ~name:"opening attributes correctly" ~count:6
      (QCheck.pair QCheck.bool QCheck.small_string)
      (fun (use_alice, msg) ->
        let rng = test_rng (String.length msg + 300) in
        let signer = if use_alice then alice else carol in
        let expected = if use_alice then "a" else "c" in
        let grt =
          [ (Group_sig.token_of_gsk alice, "a"); (Group_sig.token_of_gsk carol, "c") ]
        in
        let s = Group_sig.sign gpk signer ~rng ~msg in
        Group_sig.open_signature gpk ~grt ~msg s = Some expected);
  ]

(* --- the formulas sign, verify and open used before the Miller-line
   tables and the two-term chains, kept as slow oracles: one [Pairing.tate]
   per pairing, [G1.mul] plus [G1.add] per two-term product, R̃2 grouped
   around T2 and v̂ as in the paper's Eq. 2 --- *)
module Reference = struct
  let scalar_width params = (Bigint.num_bits params.Params.q + 7) / 8

  let frame parts =
    String.concat ""
      (List.map
         (fun s ->
           let b = Bytes.create 4 in
           Bytes.set_int32_be b 0 (Int32.of_int (String.length s));
           Bytes.to_string b ^ s)
         parts)

  let gpk_bytes (gpk : Group_sig.gpk) =
    let params = gpk.params in
    frame
      [
        Bigint.to_bytes_be params.Params.p;
        Bigint.to_bytes_be params.Params.q;
        G1.encode params gpk.g1;
        G1.encode params gpk.g2;
        G1.encode params gpk.w;
      ]

  let bases (gpk : Group_sig.gpk) ~msg ~r_nonce =
    match gpk.base_mode with
    | Group_sig.Fixed_bases -> (gpk.fixed_u, gpk.fixed_v)
    | Group_sig.Per_message ->
      let context = frame [ gpk_bytes gpk; msg; r_nonce ] in
      ( G1.hash_to_point gpk.params ("peace-h0-u" ^ context),
        G1.hash_to_point gpk.params ("peace-h0-v" ^ context) )

  let challenge (gpk : Group_sig.gpk) ~msg ~r_nonce ~t1 ~t2 ~r1 ~r2 ~r3 =
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
    let wide =
      Peace_hash.Hmac.hkdf ~info:"peace-challenge-scalar" data (scalar_width params + 16)
    in
    Bigint.erem (Bigint.of_bytes_be wide) params.Params.q

  let sign (gpk : Group_sig.gpk) (gsk : Group_sig.gsk) ~rng ~msg =
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
    let e_v_g2 = Pairing.tate params v gpk.g2 in
    let e_v_w = Pairing.tate params v gpk.w in
    let e_a_g2 = Pairing.tate params gsk.a gpk.g2 in
    let e_t2_g2 = Pairing.Gt.mul params e_a_g2 (Pairing.Gt.pow params e_v_g2 alpha) in
    let r2 =
      Pairing.Gt.mul params
        (Pairing.Gt.pow params e_t2_g2 r_x)
        (Pairing.Gt.mul params
           (Pairing.Gt.pow params e_v_w (Bigint.neg r_alpha))
           (Pairing.Gt.pow params e_v_g2 (Bigint.neg r_delta)))
    in
    let r3 =
      G1.add params (G1.mul params r_x t1) (G1.neg params (G1.mul params r_delta u))
    in
    let c = challenge gpk ~msg ~r_nonce ~t1 ~t2 ~r1 ~r2 ~r3 in
    {
      Group_sig.r_nonce;
      t1;
      t2;
      c;
      s_alpha = Modular.add r_alpha (Modular.mul c alpha q) q;
      s_x = Modular.add r_x (Modular.mul c x_eff q) q;
      s_delta = Modular.add r_delta (Modular.mul c delta q) q;
    }

  let checked_bases (gpk : Group_sig.gpk) ~msg (s : Group_sig.signature) =
    let params = gpk.params in
    let q = params.Params.q in
    let well_formed =
      String.length s.r_nonce = scalar_width params
      && G1.on_curve params s.t1 && G1.on_curve params s.t2
      && (not (G1.is_infinity s.t1))
      && Bigint.compare s.c q < 0 && Bigint.sign s.c >= 0
      && Bigint.compare s.s_alpha q < 0 && Bigint.compare s.s_x q < 0
      && Bigint.compare s.s_delta q < 0
    in
    if not well_formed then None
    else begin
      let u, v = bases gpk ~msg ~r_nonce:s.r_nonce in
      let r1 =
        G1.add params (G1.mul params s.s_alpha u) (G1.neg params (G1.mul params s.c s.t1))
      in
      let arg1 = G1.add params (G1.mul params s.s_x gpk.g2) (G1.mul params s.c gpk.w) in
      let arg2 =
        G1.add params
          (G1.mul params (Modular.sub Bigint.zero s.s_alpha q) gpk.w)
          (G1.mul params (Modular.sub Bigint.zero s.s_delta q) gpk.g2)
      in
      let r2 =
        Pairing.Gt.mul params
          (Pairing.Gt.mul params (Pairing.tate params s.t2 arg1) (Pairing.tate params v arg2))
          (Pairing.Gt.pow params gpk.e_g1_g2 (Bigint.neg s.c))
      in
      let r3 =
        G1.add params (G1.mul params s.s_x s.t1) (G1.neg params (G1.mul params s.s_delta u))
      in
      if Bigint.equal s.c (challenge gpk ~msg ~r_nonce:s.r_nonce ~t1:s.t1 ~t2:s.t2 ~r1 ~r2 ~r3)
      then Some (u, v)
      else None
    end

  (* Eq. 3 with e(T2 − A, û) from its own Miller loop *)
  let find_signer (gpk : Group_sig.gpk) (s : Group_sig.signature) ~u ~v tagged =
    let params = gpk.params in
    let e_t1_v = Pairing.tate params s.t1 v in
    List.find_map
      (fun (token, tag) ->
        let lhs = Pairing.tate params (G1.add params s.t2 (G1.neg params token)) u in
        if Pairing.Gt.equal params lhs e_t1_v then Some tag else None)
      tagged

  (* Eq. 3 token by token, without the batched addition or the line test:
     per token, [G1.add], a walk through û's lines ([tate_lines], with its
     inverting final exponentiation) and [Gt.equal] *)
  let lines_find_signer (gpk : Group_sig.gpk) (s : Group_sig.signature) ~u ~v tagged =
    let params = gpk.params in
    let u_lines = Pairing.lines_of params u in
    let e_t1_v = Pairing.tate params s.t1 v in
    List.find_map
      (fun (token, tag) ->
        let t2_minus_a = G1.add params s.t2 (G1.neg params token) in
        if Pairing.Gt.equal params (Pairing.tate_lines params [ (u_lines, t2_minus_a) ]) e_t1_v
        then Some tag
        else None)
      tagged

  let verify gpk ~url ~msg s =
    match checked_bases gpk ~msg s with
    | None -> Group_sig.Invalid_proof
    | Some (u, v) ->
      if find_signer gpk s ~u ~v (List.map (fun t -> (t, ())) url) = None then Group_sig.Valid
      else Group_sig.Revoked

  let open_signature gpk ~grt ~msg s =
    match checked_bases gpk ~msg s with
    | None -> None
    | Some (u, v) -> find_signer gpk s ~u ~v grt
end

(* sign, verify and open against [Reference]: the same signature bytes
   from the same random stream, and the same verdicts on valid, forged and
   revoked signatures *)
let oracle_tests ?base_mode params ~count =
  let name what =
    Printf.sprintf "%s (%s%s)" what params.Params.name
      (if base_mode = Some Group_sig.Fixed_bases then ", fixed bases" else "")
  in
  let issuer = Group_sig.setup ?base_mode params (test_rng 81) in
  let gpk = issuer.Group_sig.gpk in
  let member = Group_sig.issue issuer ~grp:grp_a (test_rng 82) in
  let other = Group_sig.issue issuer ~grp:grp_b (test_rng 83) in
  let token = Group_sig.token_of_gsk in
  let seed = QCheck.make ~print:string_of_int QCheck.Gen.int in
  let q = params.Params.q in
  [
    QCheck.Test.make ~name:(name "sign = reference sign") ~count seed (fun seed ->
        let msg = Printf.sprintf "oracle-%d" seed in
        let s = Group_sig.sign gpk member ~rng:(test_rng seed) ~msg in
        let s' = Reference.sign gpk member ~rng:(test_rng seed) ~msg in
        Group_sig.signature_to_bytes gpk s = Group_sig.signature_to_bytes gpk s');
    QCheck.Test.make ~name:(name "verify and open = reference") ~count seed (fun seed ->
        let msg = Printf.sprintf "oracle-%d" seed in
        let rng = test_rng seed in
        let s = Group_sig.sign gpk member ~rng ~msg in
        let bump v = Modular.add v Bigint.one q in
        let elsewhere = G1.random params rng in
        let candidates =
          [
            (msg, s);
            ("another message", s);
            (msg, { s with Group_sig.c = bump s.Group_sig.c });
            (msg, { s with Group_sig.s_alpha = bump s.Group_sig.s_alpha });
            (msg, { s with Group_sig.s_x = bump s.Group_sig.s_x });
            (msg, { s with Group_sig.s_delta = bump s.Group_sig.s_delta });
            (msg, { s with Group_sig.t1 = s.Group_sig.t2; t2 = s.Group_sig.t1 });
            (msg, { s with Group_sig.t2 = elsewhere });
            (msg, { s with Group_sig.t2 = G1.add params s.Group_sig.t2 elsewhere });
          ]
        in
        let urls = [ []; [ token other ]; [ token other; token member ]; [ token member ] ] in
        let grt = [ (token other, "other"); (token member, "member") ] in
        List.for_all
          (fun (msg, s) ->
            List.for_all
              (fun url ->
                Group_sig.equal_verify_result
                  (Group_sig.verify gpk ~url ~msg s)
                  (Reference.verify gpk ~url ~msg s))
              urls
            && Group_sig.open_signature gpk ~grt ~msg s
               = Reference.open_signature gpk ~grt ~msg s)
          candidates);
  ]

(* The batched scan against [Reference.lines_find_signer]: the same
   verdicts, opened tags and [is_signer] answers, with the signer's token
   first, in the middle, last, absent or twice, with a repeated other
   token, and with tokens equal to T2 (T2 − A = O) and to −T2
   (T2 − A = 2·T2, a doubling). A forged and a wrong-message signature
   fail the proof, so their scan runs only in [is_signer]. The proof
   itself is [verify]'s; [oracle_tests] checks it. *)
let scan_tests params ~count =
  let name what = Printf.sprintf "%s (%s)" what params.Params.name in
  let issuer = Group_sig.setup params (test_rng 84) in
  let gpk = issuer.Group_sig.gpk in
  let member = Group_sig.issue issuer ~grp:grp_a (test_rng 85) in
  let other i =
    Group_sig.token_of_gsk
      (Group_sig.issue issuer ~grp:(Bigint.of_int (5000 + i)) (test_rng (86 + i)))
  in
  let o1 = other 0 and o2 = other 1 and o3 = other 2 in
  let reference_scan ~msg (s : Group_sig.signature) tagged =
    let u, v = Reference.bases gpk ~msg ~r_nonce:s.r_nonce in
    Reference.lines_find_signer gpk s ~u ~v tagged
  in
  let agrees ~msg s urls tokens =
    let proof_holds =
      Group_sig.equal_verify_result (Group_sig.verify gpk ~msg s) Group_sig.Valid
    in
    List.for_all
      (fun url ->
        let grt = List.mapi (fun i token -> (token, i)) url in
        let expected_tag = if proof_holds then reference_scan ~msg s grt else None in
        let expected_verdict =
          if not proof_holds then Group_sig.Invalid_proof
          else if Option.is_some expected_tag then Group_sig.Revoked
          else Group_sig.Valid
        in
        Group_sig.equal_verify_result (Group_sig.verify gpk ~url ~msg s) expected_verdict
        && Group_sig.open_signature gpk ~grt ~msg s = expected_tag)
      urls
    && List.for_all
         (fun token ->
           Group_sig.is_signer gpk ~msg s token
           = Option.is_some (reference_scan ~msg s [ (token, ()) ]))
         tokens
  in
  let seed = QCheck.make ~print:string_of_int QCheck.Gen.int in
  [
    QCheck.Test.make ~name:(name "VLR scan = per-token reference") ~count seed (fun seed ->
        let msg = Printf.sprintf "scan-%d" seed in
        let s = Group_sig.sign gpk member ~rng:(test_rng seed) ~msg in
        let mine = Group_sig.token_of_gsk member in
        let t2 = s.Group_sig.t2 in
        let minus_t2 = G1.neg params t2 in
        let tokens = [ mine; o1; t2; minus_t2 ] in
        let forged = { s with Group_sig.c = Modular.add s.Group_sig.c Bigint.one params.Params.q } in
        agrees ~msg s
          [
            [ mine; o1; o2; o3 ];
            [ o1; o2; mine; o3 ];
            [ o1; o2; o3; mine ];
            [ o1; o2; o3 ];
            [ mine; mine ];
            [ o2; o2; mine ];
            [ t2; o1; mine ];
            [ minus_t2; o1; mine ];
            [ t2; minus_t2 ];
          ]
          tokens
        && agrees ~msg forged [ [ o1; mine ] ] tokens
        && agrees ~msg:"another message" s [ [ o1; mine ] ] tokens);
  ]

(* [verify] assumes T1, T2 ∈ G_q (its R̃2 regrouping needs ê symmetric);
   an in-memory signature that breaks it must still be refused, and its
   encoding must not decode *)
let test_points_outside_subgroup () =
  let params = tiny in
  let fp = params.Params.fp in
  let rec rogue x =
    match Peace_ec.Ecp.lift params.Params.ec (Mont.of_int fp x) with
    | Some y when not (Mont.is_zero fp y) ->
      let pt = G1.of_affine params ~x:(Bigint.of_int x) ~y:(Mont.to_bigint fp y) in
      if G1.in_subgroup params pt then rogue (x + 1) else pt
    | Some _ | None -> rogue (x + 1)
  in
  let off = rogue 2 in
  Alcotest.(check bool) "point is off G_q" false (G1.in_subgroup params off);
  let msg = "precondition" in
  let s = Group_sig.sign gpk alice ~rng:(test_rng 95) ~msg in
  List.iter
    (fun (label, s') ->
      Alcotest.check vres (label ^ " verifies as invalid") Group_sig.Invalid_proof
        (Group_sig.verify gpk ~url:[ Group_sig.token_of_gsk alice ] ~msg s');
      Alcotest.check vres (label ^ " invalid without a URL") Group_sig.Invalid_proof
        (Group_sig.verify gpk ~msg s');
      Alcotest.(check bool) (label ^ " does not decode") true
        (Group_sig.signature_of_bytes gpk (Group_sig.signature_to_bytes gpk s') = None))
    [
      ("T1 off G_q", { s with Group_sig.t1 = off });
      ("T2 off G_q", { s with Group_sig.t2 = off });
      ("T2 shifted off G_q", { s with Group_sig.t2 = G1.add params s.Group_sig.t2 off });
    ]

(* The paper's §V-C operation counts hold on the real code path.
   verify = 2 pairings for the proof plus (1 + |URL|) for the revocation
   scan; verify_fast is independent of the table size. *)
let test_op_counts () =
  let count f =
    Counters.reset ();
    let before = Counters.snapshot () in
    f ();
    Counters.diff (Counters.snapshot ()) before
  in
  let check name got ~pairings ~g1_mul ~gt_exp ~hash_to_g1 =
    let snap = Alcotest.testable Counters.pp ( = ) in
    Alcotest.check snap name { Counters.pairings; g1_mul; gt_exp; hash_to_g1 } got
  in
  let rng = test_rng 90 in
  let msg = "op-count transcript" in
  let s = Group_sig.sign gpk alice ~rng ~msg in
  check "sign"
    (count (fun () -> ignore (Group_sig.sign gpk alice ~rng ~msg)))
    ~pairings:2 ~g1_mul:5 ~gt_exp:4 ~hash_to_g1:2;
  check "verify |URL|=0"
    (count (fun () ->
         Alcotest.check vres "valid" Group_sig.Valid (Group_sig.verify gpk ~msg s)))
    ~pairings:2 ~g1_mul:8 ~gt_exp:1 ~hash_to_g1:2;
  List.iter
    (fun n ->
      (* non-matching tokens: the scan runs to the end of the URL *)
      let url =
        List.init n (fun i ->
            Group_sig.token_of_gsk
              (Group_sig.issue issuer ~grp:(Bigint.of_int (3000 + i)) rng))
      in
      check
        (Printf.sprintf "verify |URL|=%d" n)
        (count (fun () ->
             Alcotest.check vres "valid" Group_sig.Valid
               (Group_sig.verify gpk ~url ~msg s)))
        ~pairings:(3 + n) ~g1_mul:8 ~gt_exp:1 ~hash_to_g1:2)
    [ 1; 6; 8 ];
  (* verify_fast: |URL|-independent — identical counts for 4 to 50 tokens *)
  let fi = Group_sig.setup ~base_mode:Group_sig.Fixed_bases tiny (test_rng 91) in
  let fgpk = fi.Group_sig.gpk in
  let dave = Group_sig.issue fi ~grp:(Bigint.of_int 1) rng in
  let s_f = Group_sig.sign fgpk dave ~rng ~msg in
  List.iter
    (fun n ->
      let table =
        Group_sig.build_fast_table fgpk
          (List.init n (fun i ->
               Group_sig.token_of_gsk
                 (Group_sig.issue fi ~grp:(Bigint.of_int (4000 + i)) rng)))
      in
      check
        (Printf.sprintf "verify_fast table=%d" n)
        (count (fun () ->
             Alcotest.check vres "valid" Group_sig.Valid
               (Group_sig.verify_fast fgpk table ~msg s_f)))
        ~pairings:4 ~g1_mul:8 ~gt_exp:1 ~hash_to_g1:0)
    [ 4; 5; 24; 50 ]

let suite =
  [
    ( "group-sig",
      [
        Alcotest.test_case "key validity" `Quick test_key_validity;
        Alcotest.test_case "sign/verify" `Quick test_sign_verify;
        Alcotest.test_case "golden signature" `Quick test_golden_signature;
        Alcotest.test_case "tampering" `Quick test_tampering;
        Alcotest.test_case "revocation" `Quick test_revocation;
        Alcotest.test_case "opening" `Quick test_open;
        Alcotest.test_case "unlinkability shape" `Quick test_unlinkability_shape;
        Alcotest.test_case "fast revocation" `Quick test_fast_revocation;
        Alcotest.test_case "fast revocation, empty table" `Quick
          test_fast_revocation_empty_table;
        Alcotest.test_case "serialisation" `Quick test_serialisation;
        Alcotest.test_case "vanilla bs04" `Quick test_vanilla_bs04;
        Alcotest.test_case "issue edge cases" `Quick test_issue_edge_cases;
        Alcotest.test_case "token distinctness" `Quick test_cross_group_opening;
        Alcotest.test_case "key storage round trips" `Quick test_key_storage_round_trips;
        Alcotest.test_case "bit flips never verify" `Quick test_bitflip_never_verifies;
        Alcotest.test_case "fixed-bases linkability cost" `Quick test_fixed_bases_linkability;
        Alcotest.test_case "op counts match paper" `Quick test_op_counts;
        Alcotest.test_case "T1 or T2 outside G_q" `Quick test_points_outside_subgroup;
      ] );
    ( "bbs04-baseline",
      [
        Alcotest.test_case "sign/verify" `Quick test_bbs04_sign_verify;
        Alcotest.test_case "open" `Quick test_bbs04_open;
      ] );
    ("group-sig-properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ( "group-sig-oracles",
      List.map QCheck_alcotest.to_alcotest
        (oracle_tests tiny ~count:10
        @ oracle_tests ~base_mode:Group_sig.Fixed_bases tiny ~count:4
        @ oracle_tests (Lazy.force Params.light) ~count:1
        @ scan_tests tiny ~count:10
        @ scan_tests (Lazy.force Params.light) ~count:2) );
  ]

let () = Alcotest.run "peace-groupsig" suite
