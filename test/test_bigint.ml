(* Unit and property tests for the bigint substrate. *)

open Peace_bigint

let big = Alcotest.testable Bigint.pp Bigint.equal

(* reference vectors generated with CPython integers *)
let vec_a =
  Bigint.of_string
    "0xd8972a846916419f828b9d2434e465e150bd9c66b3ad3c2d6d1a3d1fa7bc8960a923b8c1e9392456de3eb13b9046685257bdd640fb06671ad11c80317fa3b1799d"

let vec_b =
  Bigint.of_string
    "0x386ec6b65a6a48b8148f6b38a088ca65ed389b74d0fb132e706298fadc1a606cb0fb39a1de644815ef6d13b8faa1837f8a88b17fc695a07a0ca6e0822e8f3"

let vec_m =
  Bigint.of_string
    "0xf50bea63371ecd7b27cd813047229389571aa8766c307511b2b9437a28df6ec4ce4a2bbdc241330b01a9e71fde8a774bcf36d58b4737819096da1dac72ff5d2b"

let check_hex name expected value =
  Alcotest.(check string) name expected (Bigint.to_hex value)

let test_known_vectors () =
  check_hex "a+b"
    "d8972e0b5581a74627171e6d2b97efe9dd63fb3a3d64893d1e4d2425d14c37224f2a83d19cd3423d22c010326181f7fc6ff5cee9861e63842b2420fbedabd46290"
    (Bigint.add vec_a vec_b);
  check_hex "a-b"
    "d89726fd7caadbf8de001bdb3e30dbd8c4173d9329f5ef1dbbe756197e2cdb9f031cedb2359f067099bd5244bf0ad8a83f85dd986fee6ab17714df67119b8e90aa"
    (Bigint.sub vec_a vec_b);
  check_hex "a*b"
    "2fbeca606ebbba656d72f2397626df0f7a4ae147b677f2dbf84f2fbb651ea4240b7ef681bfd3e0eb7e8a7a453f15af35463040ffec701cb364cda7e957221e602c8748d270f24bb27ee4a0b8c76e4dae8caae6ac5300e3c098b4b6ccd132df37a634730fef840f9f9a73a382d4a2d3f1bb9fc50990c0c5877f415564686b807"
    (Bigint.mul vec_a vec_b);
  check_hex "a/b" "3d6892" (Bigint.div vec_a vec_b);
  check_hex "a%b"
    "1eeb9d5607f30137486ae62b038eaedc7225517b01ca3c0137d2e1035ded407bd1dbf50385b9d126846ce699a238aa468e8c3b332a10f34581b1f4f3ee707"
    (Bigint.rem vec_a vec_b);
  check_hex "powm"
    "ecc0f316e11cd3c51b1c5ab9ec8f291a6e2c5e22d9238997a84f3297e32316a803048f157fb7ccac7eff08a82d2e1e34ccba6214adebdfc1b5b91ab66a8e3454"
    (Modular.powm vec_a vec_b vec_m);
  check_hex "invert"
    "df4cab395456ac90ed52d6544d82908dcde14e4421941e30f9620fe81c687777d0f1f552c37098541937ebe3736358832ccfe4cd10c4c59469fdc5d394868147"
    (Modular.invert vec_a vec_m);
  Alcotest.(check string)
    "decimal"
    "2904003723044805790862381663070934428184522455171085489933007050088210895656080405347399000995126729366577269744272316915396487989783988846775628220467345821"
    (Bigint.to_string vec_a)

let test_small_arithmetic () =
  let check name expected got = Alcotest.(check big) name expected got in
  check "0+0" Bigint.zero (Bigint.add Bigint.zero Bigint.zero);
  check "1+(-1)" Bigint.zero (Bigint.add Bigint.one Bigint.minus_one);
  check "neg neg" (Bigint.of_int 5) (Bigint.neg (Bigint.of_int (-5)));
  check "(-7)/2" (Bigint.of_int (-3)) (Bigint.div (Bigint.of_int (-7)) Bigint.two);
  check "(-7) mod 2" (Bigint.of_int (-1))
    (Bigint.rem (Bigint.of_int (-7)) Bigint.two);
  check "(-7) erem 2" Bigint.one (Bigint.erem (Bigint.of_int (-7)) Bigint.two);
  check "min_int round-trip"
    (Bigint.of_string (string_of_int Stdlib.min_int))
    (Bigint.of_int Stdlib.min_int);
  Alcotest.(check int) "to_int min_int" Stdlib.min_int
    (Bigint.to_int (Bigint.of_int Stdlib.min_int));
  Alcotest.(check int) "to_int max_int" Stdlib.max_int
    (Bigint.to_int (Bigint.of_int Stdlib.max_int));
  check "2^100"
    (Bigint.of_string "1267650600228229401496703205376")
    (Bigint.shift_left Bigint.one 100);
  check "gcd 12 18" (Bigint.of_int 6)
    (Bigint.gcd (Bigint.of_int 12) (Bigint.of_int 18));
  check "gcd 0 5" (Bigint.of_int 5) (Bigint.gcd Bigint.zero (Bigint.of_int 5))

let test_bytes_round_trip () =
  let x = Bigint.of_string "0x1a2b3c4d5e6f708192a3b4c5d6e7f8" in
  let s = Bigint.to_bytes_be x in
  Alcotest.(check big) "bytes round trip" x (Bigint.of_bytes_be s);
  let padded = Bigint.to_bytes_be ~width:32 x in
  Alcotest.(check int) "padded width" 32 (String.length padded);
  Alcotest.(check big) "padded round trip" x (Bigint.of_bytes_be padded);
  Alcotest.(check string) "zero bytes" "\000" (Bigint.to_bytes_be Bigint.zero)

let test_shift_and_bits () =
  let x = Bigint.of_string "0xdeadbeefcafebabe0123456789" in
  Alcotest.(check big) "shl/shr inverse" x
    (Bigint.shift_right (Bigint.shift_left x 67) 67);
  Alcotest.(check int) "num_bits 1" 1 (Bigint.num_bits Bigint.one);
  Alcotest.(check int) "num_bits 2^64" 65
    (Bigint.num_bits (Bigint.shift_left Bigint.one 64));
  Alcotest.(check bool) "testbit" true
    (Bigint.testbit (Bigint.shift_left Bigint.one 64) 64);
  Alcotest.(check bool) "testbit off" false
    (Bigint.testbit (Bigint.shift_left Bigint.one 64) 63)

let test_division_edges () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bigint.divmod Bigint.one Bigint.zero));
  (* divisor requiring the Knuth-D add-back path: crafted high limbs *)
  let u = Bigint.of_string "0x7fffffff800000010000000000000000" in
  let v = Bigint.of_string "0x800000008000000200000005" in
  let q, r = Bigint.divmod u v in
  Alcotest.(check big) "knuth reconstruct" u
    (Bigint.add (Bigint.mul q v) r);
  Alcotest.(check bool) "knuth r < v" true (Bigint.compare r v < 0)

let test_modular_edges () =
  Alcotest.check_raises "invert non-coprime" Division_by_zero (fun () ->
      ignore (Modular.invert (Bigint.of_int 6) (Bigint.of_int 9)));
  Alcotest.(check big) "powm mod 1" Bigint.zero
    (Modular.powm (Bigint.of_int 5) (Bigint.of_int 3) Bigint.one);
  Alcotest.(check big) "powm e=0" Bigint.one
    (Modular.powm (Bigint.of_int 5) Bigint.zero (Bigint.of_int 7));
  (* the Montgomery path is the only one, and it takes odd moduli only *)
  List.iter
    (fun m ->
      Alcotest.check_raises
        (Printf.sprintf "powm refuses modulus %d" m)
        (Invalid_argument "Modular.powm: even modulus")
        (fun () -> ignore (Modular.powm (Bigint.of_int 3) (Bigint.of_int 4) (Bigint.of_int m))))
    [ 2; 16; 1 lsl 40 ]

let test_primes () =
  let check_prime n expected =
    Alcotest.(check bool)
      (Printf.sprintf "prime? %s" (Bigint.to_string n))
      expected
      (Prime.is_probable_prime n)
  in
  check_prime (Bigint.of_int 2) true;
  check_prime (Bigint.of_int 3) true;
  check_prime (Bigint.of_int 4) false;
  check_prime Bigint.one false;
  check_prime Bigint.zero false;
  check_prime (Bigint.of_int 997) true;
  check_prime (Bigint.of_int 1001) false;
  (* 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite *)
  check_prime (Bigint.pred (Bigint.shift_left Bigint.one 127)) true;
  check_prime (Bigint.succ (Bigint.shift_left Bigint.one 128)) false;
  (* a strong pseudoprime to base 2: 3215031751 = 151*751*28351 *)
  check_prime (Bigint.of_string "3215031751") false;
  Alcotest.(check big) "next_prime 24" (Bigint.of_int 29)
    (Prime.next_prime (Bigint.of_int 24));
  Alcotest.(check big) "next_prime 29" (Bigint.of_int 31)
    (Prime.next_prime (Bigint.of_int 29))

let wide_a =
  Bigint.of_string
    "0x57a5da05f73dba1c1b5b32097ce80c2d0fd6d9a90965f580d16aaff1a41fe52d78dc4bfb9e8ddaecc2c55e986d484271143591cab5f7c4bf5cb443292af8f3b713b4c7ebb7344df3d2273a37403227210f4d0c5b86c0ef0d2329d9fa09ca46767389669b02a56d32b55d35e67646f184c69290764b501814b062ae88c88ad1eee1f220fd5475125ccedc773429e79c6cda4ccb01f35efe8ed5f03644f758cd0aeb34f96712489050fe32817812f170167a34d0c643e653ad689cf88759f153b7785728f2655b19153d3a3f56bc09cb91215785d99773382dd301c8a91afa5c7623c4dd26fb984f366c5acdaeafb905dc8ac0bb635b4c41d283eb3a5fbd238ec9cf158de6e96d45cae8c077377925b396a1da2c9cfbba43b8e3c71f6bf08d62331057ca7d411fab9fb932d4f039772216ff82e389e3995ab35331ceaf2ed9dd87e355b26210b784baa1c6f1404b6eaf162a01dec28753f8221c4e003f9931ee3af27f802dc5fd3d9974d75b333824fe61790134676b1b69"

let wide_b =
  Bigint.of_string
    "0x33cff79c40d286a6a75635823a662b78f5608162c33760e399566223050c349a2ad5223ad895eff22502daa0b349a7a4bf8050cbb812881d4eada6af532f9a8bcb5c988a90d2856dcbdb9d1cca1e01b04f41f1fc30d89bacfa3be14460cc4779447fc73719c543e39651b0f6188f9b7341e163e7ce3523eb0dec9409ff25403cfd68ed8a232d7a2d12fdba24d02c941da54bc4f0a024c70f481e64176618b3205e1fd6833568865042f0f404719ba8272c26833ccabf49e557c768beaf9983d819b7e6ace5dd2a7afebd11e14f21846d9e0e4a1175ec15426979e48824b1eb72c8f0fc795a5a9331f620588857c3881083d33bf8206770fa788ba3fb8041f089dc7166a9f536209dbca3f3760f0e2eb028f94cf6b0c986fa9fe66471833367433467c3b9fe85fdadc422c4d84f5467115b618d3f430173745f9e0d54254f4f81b02495da1716055583a1cbb7236ce8571befca6c3a14c6e95e6b451936d1d5c42faf11c1e779462a34"

let test_large_products () =
  (* 3000-bit operands through the schoolbook product; checked against a
     CPython-computed digest of its hex rendering *)
  let product = Bigint.mul wide_a wide_b in
  Alcotest.(check string) "3000-bit product"
    "7357372c453d09c1d60330863b4dc32768febc1d0089ea5d7b5c7aebfc6a1bb3"
    (Peace_hash.Sha256.to_hex (Peace_hash.Sha256.digest (Bigint.to_hex product)));
  (* identities over skewed operand sizes *)
  let small = Bigint.of_string "0xdeadbeef" in
  Alcotest.(check big) "skewed commutes" (Bigint.mul wide_a small)
    (Bigint.mul small wide_a);
  Alcotest.(check big) "divmod recovers factor" wide_b
    (Bigint.div product wide_b |> fun q -> Bigint.div product q |> fun _ ->
     Bigint.div product wide_a);
  Alcotest.(check big) "square of sum"
    (Bigint.mul (Bigint.add wide_a wide_b) (Bigint.add wide_a wide_b))
    (Bigint.add
       (Bigint.add (Bigint.mul wide_a wide_a) (Bigint.mul wide_b wide_b))
       (Bigint.mul_int (Bigint.mul wide_a wide_b) 2))

(* Deterministic pseudo-random byte source for tests *)
let test_rng seed =
  let state = ref seed in
  fun n ->
    let b = Bytes.create n in
    for i = 0 to n - 1 do
      state := (!state * 2685821657736338717) + 1442695040888963407;
      Bytes.set b i (Char.chr ((!state lsr 32) land 0xff))
    done;
    Bytes.unsafe_to_string b

let test_random () =
  let rng = test_rng 7 in
  let bound = Bigint.of_string "0x123456789abcdef" in
  for _ = 1 to 50 do
    let x = Bigint.random_below rng bound in
    Alcotest.(check bool) "below bound" true (Bigint.compare x bound < 0);
    Alcotest.(check bool) "non-negative" true (Bigint.sign x >= 0)
  done;
  let lo = Bigint.of_int 100 and hi = Bigint.of_int 200 in
  for _ = 1 to 50 do
    let x = Bigint.random_range rng lo hi in
    Alcotest.(check bool) "in range" true
      (Bigint.compare lo x <= 0 && Bigint.compare x hi < 0)
  done;
  let p = Prime.random_prime rng ~bits:64 in
  Alcotest.(check int) "prime has exact bit size" 64 (Bigint.num_bits p);
  Alcotest.(check bool) "generated prime is prime" true
    (Prime.is_probable_prime p)

let test_mont () =
  let m = vec_m in
  let ctx = Mont.create m in
  let a = Mont.of_bigint ctx vec_a and b = Mont.of_bigint ctx vec_b in
  Alcotest.(check big) "mont mul"
    (Modular.mul vec_a vec_b m)
    (Mont.to_bigint ctx (Mont.mul ctx a b));
  Alcotest.(check big) "mont add"
    (Modular.add vec_a vec_b m)
    (Mont.to_bigint ctx (Mont.add ctx a b));
  Alcotest.(check big) "mont sub"
    (Modular.sub vec_a vec_b m)
    (Mont.to_bigint ctx (Mont.sub ctx a b));
  Alcotest.(check big) "mont pow"
    (Modular.powm vec_a vec_b m)
    (Mont.to_bigint ctx (Mont.pow ctx a vec_b));
  Alcotest.(check big) "mont inv"
    (Modular.invert vec_a m)
    (Mont.to_bigint ctx (Mont.inv ctx a));
  Alcotest.(check big) "mont neg + add = 0" Bigint.zero
    (Mont.to_bigint ctx (Mont.add ctx a (Mont.neg ctx a)));
  Alcotest.(check bool) "mont one" true
    (Bigint.is_one (Mont.to_bigint ctx (Mont.one ctx)))

(* --- the Montgomery kernel against plain Bigint arithmetic --- *)

let limb_bits = Bigint.Internal.limb_bits
let limb_mask = Bigint.Internal.limb_mask

(* odd moduli of exactly [k] limbs: the largest top limb, the smallest,
   and a random one *)
let kernel_moduli rng k =
  let unit = Bigint.shift_left Bigint.one (limb_bits * (k - 1)) in
  let with_top top =
    let low = Bigint.random_below rng unit in
    Bigint.logor (Bigint.add (Bigint.mul_int unit top) low) Bigint.one
  in
  let random_top =
    2 + Bigint.to_int (Bigint.random_below rng (Bigint.of_int (limb_mask - 2)))
  in
  [ with_top limb_mask; with_top (if k = 1 then 3 else 1); with_top random_top ]

let preset_moduli =
  let p params = (Lazy.force params).Peace_pairing.Params.p in
  [ p Peace_pairing.Params.tiny; p Peace_pairing.Params.light ]

(* 0, 1, m − 1, R mod m and random residues, canonical *)
let kernel_operands rng m k =
  let radix = Bigint.shift_left Bigint.one (limb_bits * k) in
  [ Bigint.zero; Bigint.one; Bigint.pred m; Bigint.erem radix m ]
  @ List.init 4 (fun _ -> Bigint.random_below rng m)

(* every product and square, then a chain of 1 000 products fed back into
   the kernel: a result left at or above m would drift from the reference
   or fail to match the canonical encoding of the reference value *)
let check_kernel rng m =
  let ctx = Mont.create m in
  let k = Mont.num_limbs ctx in
  let same what expected got =
    if
      not
        (Bigint.equal expected (Mont.to_bigint ctx got)
        && Mont.equal ctx got (Mont.of_bigint ctx expected))
    then
      Alcotest.failf "%d limbs, m = %s: %s: want %s" k (Bigint.to_hex m) what
        (Bigint.to_hex expected)
  in
  let ops = kernel_operands rng m k in
  List.iter
    (fun a ->
      let ma = Mont.of_bigint ctx a in
      same "sqr" (Modular.mul a a m) (Mont.sqr ctx ma);
      List.iter
        (fun b ->
          same "mul" (Modular.mul a b m) (Mont.mul ctx ma (Mont.of_bigint ctx b)))
        ops)
    ops;
  let b = Bigint.random_below rng m in
  let mb = Mont.of_bigint ctx b in
  let x = ref (Bigint.pred m) and mx = ref (Mont.of_bigint ctx (Bigint.pred m)) in
  for i = 1 to 1000 do
    if i mod 7 = 0 then begin
      x := Modular.mul !x !x m;
      mx := Mont.sqr ctx !mx
    end
    else begin
      x := Modular.mul !x b m;
      mx := Mont.mul ctx !mx mb
    end
  done;
  same "chain of 1000" !x !mx

let test_mont_kernel () =
  let rng = test_rng 23 in
  List.iter
    (fun k -> List.iter (check_kernel rng) (kernel_moduli rng k))
    [ 1; 2; 3; 6; 18; 35 ];
  List.iter (check_kernel rng) preset_moduli

(* the secp160r1 and secp256r1 field orders, the ECDSA curves' fields *)
let sqrt_secp_moduli =
  [
    ("secp160r1", Bigint.of_string "0xffffffffffffffffffffffffffffffff7fffffff");
    ( "secp256r1",
      Bigint.of_string "0xffffffff00000001000000000000000000000000ffffffffffffffffffffffff" );
  ]

(* --- the one exponentiation chain against a ladder --- *)

(* square-and-multiply from the top bit, the reference for Mont.chain *)
let ladder ~one ~mul ~sqr b e =
  let acc = ref one in
  for i = Bigint.num_bits e - 1 downto 0 do
    acc := sqr !acc;
    if Bigint.testbit e i then acc := mul !acc b
  done;
  !acc

(* exponents on both sides of the window switch at 48 bits: 0, 1, 2,
   2^100, 65 537, tiny's 9-bit cofactor h, a scalar of light's 160-bit q,
   light's 352-bit h, a 512-bit value, and 2^47 − 1 and 2^48 − 1 *)
let chain_exponents rng =
  let tiny = Lazy.force Peace_pairing.Params.tiny
  and light = Lazy.force Peace_pairing.Params.light in
  [
    Bigint.zero;
    Bigint.one;
    Bigint.two;
    Bigint.shift_left Bigint.one 100;
    Bigint.of_int 65537;
    tiny.Peace_pairing.Params.h;
    Bigint.random_below rng light.Peace_pairing.Params.q;
    light.Peace_pairing.Params.h;
    Bigint.logor (Bigint.random_bits rng 512) (Bigint.shift_left Bigint.one 511);
    Bigint.pred (Bigint.shift_left Bigint.one 47);
    Bigint.pred (Bigint.shift_left Bigint.one 48);
  ]

(* an RSA-1024 modulus from Rsa.generate, fixed here so that the test does
   not run the chain under test to find its primes *)
let rsa_1024 =
  Bigint.of_hex
    "b421314372a8fc460238139766eb24aa859bb10901b0ab0b7a6c8d5a62ab8ca1880a421b0f86e5bc5a39d6d7af2162a061ab65c19a8e7368eccd168dd8adfd939a82759bdb2950bbb2ac17b19ca969fd0532ef9777ca336d238d234008753697933a908f508a4c74830f6285fce09e145c20f9d2a9b2466ba9d8e3ed2e4e910b"

let test_chain_vs_ladder () =
  let rng = test_rng 31 in
  let exponents = chain_exponents rng in
  let fp_moduli =
    [
      ("tiny", List.nth preset_moduli 0);
      ("light", List.nth preset_moduli 1);
      ("secp160r1", List.assoc "secp160r1" sqrt_secp_moduli);
      ("rsa-1024", rsa_1024);
    ]
  in
  List.iter
    (fun (name, m) ->
      let ctx = Mont.create m in
      let one = Mont.one ctx and mul = Mont.mul ctx and sqr = Mont.sqr ctx in
      List.iter
        (fun b ->
          let mb = Mont.of_bigint ctx b in
          List.iter
            (fun e ->
              if not (Mont.equal ctx (Mont.pow ctx mb e) (ladder ~one ~mul ~sqr mb e)) then
                Alcotest.failf "F_p %s: %s^%s" name (Bigint.to_hex b) (Bigint.to_hex e))
            exponents)
        [ Bigint.zero; Bigint.pred m; Bigint.random_below rng m ])
    fp_moduli;
  List.iter
    (fun (name, m) ->
      let module Fq2 = Peace_pairing.Fq2 in
      let fp = Mont.create m in
      let one = Fq2.one fp and mul = Fq2.mul fp and sqr = Fq2.sqr fp in
      let random () = Fq2.of_bigints fp (Bigint.random_below rng m) (Bigint.random_below rng m) in
      List.iter
        (fun b ->
          List.iter
            (fun e ->
              if not (Fq2.equal fp (Fq2.pow fp b e) (ladder ~one ~mul ~sqr b e)) then
                Alcotest.failf "F_p² %s: exponent %s" name (Bigint.to_hex e))
            exponents)
        [ Fq2.zero fp; random (); random () ])
    [ ("tiny", List.nth preset_moduli 0); ("light", List.nth preset_moduli 1) ]

(* the root is defined for m ≡ 3 (mod 4) only; −1 is a non-residue there *)
let test_mont_sqrt_edges () =
  let ctx = Mont.create (Bigint.of_int 23) in
  let root v = Option.map (Mont.to_bigint ctx) (Mont.sqrt ctx (Mont.of_int ctx v)) in
  Alcotest.(check (option big)) "sqrt 0" (Some Bigint.zero) (root 0);
  Alcotest.(check (option big)) "sqrt 1" (Some Bigint.one) (root 1);
  Alcotest.(check (option big)) "sqrt 4 = 4^6 mod 23" (Some Bigint.two) (root 4);
  Alcotest.(check (option big)) "sqrt -1" None (root (-1));
  Alcotest.check_raises "m = 1 (mod 4)" (Invalid_argument "Mont.sqrt: modulus is not 3 mod 4")
    (fun () ->
      let ctx = Mont.create (Bigint.of_int 13) in
      ignore (Mont.sqrt ctx (Mont.one ctx)))

let test_mont_width_guard () =
  let rng = test_rng 29 in
  let narrow = Mont.create (List.nth preset_moduli 0) in
  let wide = Mont.create (List.nth preset_moduli 1) in
  let a = Mont.of_bigint narrow (Bigint.random_below rng (Mont.modulus narrow)) in
  let b = Mont.of_bigint wide (Bigint.random_below rng (Mont.modulus wide)) in
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s: mixed widths accepted" what
    | exception Invalid_argument _ -> ()
  in
  raises "narrow ctx, wide operand" (fun () -> Mont.mul narrow a b);
  raises "narrow ctx, wide first operand" (fun () -> Mont.mul narrow b a);
  raises "wide ctx, narrow operand" (fun () -> Mont.mul wide b a);
  raises "sqr of a foreign element" (fun () -> Mont.sqr wide a)

(* --- Lehmer's extended Euclid against the one it replaced --- *)

(* The extended Euclidean algorithm on (m, a mod m), keeping only the
   coefficient of a: every remainder r has r ≡ s·a (mod m) beside it, so
   the coefficient beside a last remainder of 1 is the inverse. This is
   the library's Bigint.invert before Lehmer's algorithm, one division
   per step, word for word but for the accessors of the abstract
   Bigint.t: the oracle of Bigint.invert, Mont.inv and Mont.inv_all. *)
let euclid_invert a m =
  if Bigint.sign m <= 0 then invalid_arg "Bigint.invert: modulus must be positive";
  let rec go r0 s0 r1 s1 =
    if Bigint.sign r1 = 0 then
      if Bigint.is_one r0 then Bigint.erem s0 m else raise Division_by_zero
    else begin
      let q, r2 = Bigint.divmod r0 r1 in
      go r1 s1 r2 (Bigint.sub s0 (Bigint.mul q s1))
    end
  in
  let a = Bigint.erem a m in
  if Bigint.sign a = 0 then raise Division_by_zero;
  go m Bigint.zero a Bigint.one

(* λ = lcm(p − 1, q − 1) of an RSA-1024 key from Rsa.generate, fixed
   here: the even modulus that key generation inverts 65 537 by *)
let rsa_1024_lambda =
  Bigint.of_hex
    "1c173385df7f3f9780efa815fc413262a83d016bf23568277fe56e91c89c468c27651f9f7fe9b88cdbfb687a7218eacfd43d8889899bd9601548f5b7a0c0da275d1d4baf0146eb38e3d38aa398b3f33cdee7ffaad788b5346d9a3a357e297a74f5cfa8e41969ca0d0581d5d9ee9446360115934d950652de394da01d4270660a"

(* Bigint.invert returns what the oracle returns, or raises what it
   raises *)
let same_inverse what a m =
  let run f = match f a m with x -> Ok x | exception e -> Error (Printexc.to_string e) in
  match (run Bigint.invert, run euclid_invert) with
  | Ok x, Ok y when Bigint.equal x y -> ()
  | Error e, Error e' when e = e' -> ()
  | got, want ->
    let show = function Ok x -> Bigint.to_hex x | Error e -> e in
    Alcotest.failf "%s: invert %s mod %s: got %s, want %s" what (Bigint.to_hex a)
      (Bigint.to_hex m) (show got) (show want)

(* Moduli of 1 to 40 limbs, odd (the kernel's, with the largest, the
   smallest and a random top limb) and each plus one, and an RSA-1024 λ,
   each with a random a, a negative a, a ≥ m, a = 1, a = m − 1, a = 0 and
   an a that shares a factor with m *)
let test_invert_vs_euclid () =
  let rng = test_rng 37 in
  let moduli =
    List.concat_map
      (fun k ->
        let odd = kernel_moduli rng k in
        odd @ List.map Bigint.succ odd)
      (List.init 40 (fun k -> k + 1))
  in
  List.iter
    (fun m ->
      let what = Printf.sprintf "%d-bit m" (Bigint.num_bits m) in
      let r = Bigint.random_below rng m in
      List.iter
        (fun a -> same_inverse what a m)
        [
          r;
          Bigint.neg r;
          Bigint.neg (Bigint.add m r);
          Bigint.add m r;
          Bigint.mul_int m 3;
          Bigint.one;
          Bigint.pred m;
          Bigint.zero;
          Bigint.mul (Bigint.gcd m (Bigint.of_int 30)) (Bigint.add_int r 1);
        ])
    (rsa_1024_lambda :: moduli);
  let d = Bigint.invert (Bigint.of_int 65537) rsa_1024_lambda in
  Alcotest.(check big) "e·d ≡ 1 (mod λ)" Bigint.one
    (Bigint.erem (Bigint.mul_int d 65537) rsa_1024_lambda);
  Alcotest.check_raises "non-coprime" Division_by_zero (fun () ->
      ignore (Bigint.invert (Bigint.of_int 65536) rsa_1024_lambda));
  List.iter
    (fun m ->
      Alcotest.check_raises
        (Printf.sprintf "m = %s" (Bigint.to_string m))
        (Invalid_argument "Bigint.invert: modulus must be positive")
        (fun () -> ignore (Bigint.invert (Bigint.of_int 3) m)))
    [ Bigint.zero; Bigint.minus_one; Bigint.neg rsa_1024_lambda ]

(* (F_n, F_(n+1)) *)
let fibonacci n =
  let rec go i a b = if i = n then (a, b) else go (i + 1) b (Bigint.add a b) in
  go 0 Bigint.zero Bigint.one

(* (r_0, r_1) whose remainder sequence has exactly the quotients [qs] and
   ends at a gcd of 1; the last quotient must be at least 2 *)
let with_quotients qs =
  List.fold_right
    (fun q (r, r') -> (Bigint.add (Bigint.mul q r) r', r))
    qs (Bigint.one, Bigint.zero)

(* Consecutive Fibonacci numbers, whose quotients are all 1, make the
   longest remainder sequence for their size; F_45 is the first above one
   limb, 2^30. A quotient of a limb or more
   defeats the leading-bits simulation and forces the full division, here
   with quotients up to 2^90 amid multi-limb remainders. *)
let test_invert_sequences () =
  List.iter
    (fun n ->
      let f, f' = fibonacci n in
      same_inverse (Printf.sprintf "F_%d mod F_%d" n (n + 1)) f f';
      same_inverse (Printf.sprintf "F_%d mod F_%d" (n + 1) n) f' f)
    [ 3; 10; 44; 45; 46; 90; 300; 1000; 2000 ];
  let rng = test_rng 43 in
  let small () = Bigint.of_int (1 + Bigint.to_int (Bigint.random_below rng (Bigint.of_int 20))) in
  let run n = List.init n (fun _ -> small ()) in
  let pow2 n = Bigint.shift_left Bigint.one n in
  List.iter
    (fun big ->
      List.iter
        (fun (before, after) ->
          let qs = run before @ [ big ] @ run after @ [ Bigint.two ] in
          let m, a = with_quotients qs in
          let what = Printf.sprintf "quotient %s after %d steps" (Bigint.to_hex big) before in
          same_inverse what a m;
          same_inverse (what ^ ", negated") (Bigint.neg a) m)
        [ (0, 0); (0, 80); (40, 80); (80, 5); (200, 200) ])
    [
      Bigint.of_int limb_mask;
      pow2 limb_bits;
      Bigint.succ (pow2 limb_bits);
      Bigint.add_int (pow2 60) 5;
      Bigint.pred (pow2 64);
      Bigint.add (pow2 90) (Bigint.random_bits rng 80);
    ]

(* Mont.inv and Mont.inv_all against the oracle over the preset fields
   and the ECDSA curves' fields *)
let test_mont_inverse () =
  let rng = test_rng 47 in
  let paper = (Lazy.force Peace_pairing.Params.paper_size).Peace_pairing.Params.p in
  List.iter
    (fun (name, m) ->
      let ctx = Mont.create m in
      let values =
        [ Bigint.one; Bigint.pred m; Mont.to_bigint ctx (Mont.of_int ctx 2) ]
        @ List.init 12 (fun _ -> Bigint.random_range rng Bigint.one m)
      in
      let want x = Mont.of_bigint ctx (euclid_invert x m) in
      List.iter
        (fun x ->
          if not (Mont.equal ctx (Mont.inv ctx (Mont.of_bigint ctx x)) (want x)) then
            Alcotest.failf "%s: Mont.inv %s" name (Bigint.to_hex x))
        values;
      let all = Mont.inv_all ctx (Array.of_list (List.map (Mont.of_bigint ctx) values)) in
      List.iteri
        (fun i x ->
          if not (Mont.equal ctx all.(i) (want x)) then
            Alcotest.failf "%s: Mont.inv_all, element %d" name i)
        values;
      Alcotest.(check int) (name ^ ": inv_all of none") 0 (Array.length (Mont.inv_all ctx [||]));
      Alcotest.check_raises (name ^ ": inv 0") Division_by_zero (fun () ->
          ignore (Mont.inv ctx (Mont.zero ctx)));
      Alcotest.check_raises (name ^ ": inv_all with a 0") Division_by_zero (fun () ->
          ignore (Mont.inv_all ctx [| Mont.one ctx; Mont.zero ctx |])))
    ([ ("tiny", List.nth preset_moduli 0); ("paper_size", paper); ("light", List.nth preset_moduli 1) ]
    @ sqrt_secp_moduli)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let arbitrary_bigint =
  (* mixes small ints and large random magnitudes *)
  let gen =
    QCheck.Gen.(
      frequency
        [
          (2, map Bigint.of_int int);
          ( 3,
            map2
              (fun bits seed ->
                let rng = test_rng seed in
                Bigint.random_bits rng (1 + abs bits mod 400))
              int int );
          ( 1,
            (* products of up to 100 limbs a side *)
            map2
              (fun bits seed ->
                let rng = test_rng seed in
                Bigint.random_bits rng (800 + abs bits mod 2200))
              int int );
          ( 1,
            map2
              (fun bits seed ->
                let rng = test_rng seed in
                Bigint.neg (Bigint.random_bits rng (1 + abs bits mod 400)))
              int int );
        ])
  in
  QCheck.make ~print:Bigint.to_string gen

let prop name count law = QCheck.Test.make ~name ~count law

(* 2^n by n doublings: the shift tests' reference, which must not shift *)
let power_of_two n =
  let x = ref Bigint.one in
  for _ = 1 to n do
    x := Bigint.add !x !x
  done;
  !x

let qcheck_tests =
  [
    prop "add commutes" 300
      (QCheck.pair arbitrary_bigint arbitrary_bigint)
      (fun (a, b) -> Bigint.equal (Bigint.add a b) (Bigint.add b a));
    prop "add associates" 300
      (QCheck.triple arbitrary_bigint arbitrary_bigint arbitrary_bigint)
      (fun (a, b, c) ->
        Bigint.equal
          (Bigint.add a (Bigint.add b c))
          (Bigint.add (Bigint.add a b) c));
    prop "sub inverts add" 300
      (QCheck.pair arbitrary_bigint arbitrary_bigint)
      (fun (a, b) -> Bigint.equal (Bigint.sub (Bigint.add a b) b) a);
    prop "mul commutes" 300
      (QCheck.pair arbitrary_bigint arbitrary_bigint)
      (fun (a, b) -> Bigint.equal (Bigint.mul a b) (Bigint.mul b a));
    prop "mul distributes" 200
      (QCheck.triple arbitrary_bigint arbitrary_bigint arbitrary_bigint)
      (fun (a, b, c) ->
        Bigint.equal
          (Bigint.mul a (Bigint.add b c))
          (Bigint.add (Bigint.mul a b) (Bigint.mul a c)));
    prop "divmod reconstructs" 300
      (QCheck.pair arbitrary_bigint arbitrary_bigint)
      (fun (a, b) ->
        QCheck.assume (not (Bigint.is_zero b));
        let q, r = Bigint.divmod a b in
        Bigint.equal a (Bigint.add (Bigint.mul q b) r)
        && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0
        && (Bigint.is_zero r || Bigint.sign r = Bigint.sign a));
    prop "ediv_rem non-negative remainder" 300
      (QCheck.pair arbitrary_bigint arbitrary_bigint)
      (fun (a, b) ->
        QCheck.assume (not (Bigint.is_zero b));
        let q, r = Bigint.ediv_rem a b in
        Bigint.equal a (Bigint.add (Bigint.mul q b) r)
        && Bigint.sign r >= 0
        && Bigint.compare r (Bigint.abs b) < 0);
    prop "matches int semantics" 500
      (QCheck.pair QCheck.small_signed_int QCheck.small_signed_int)
      (fun (a, b) ->
        let ba = Bigint.of_int a and bb = Bigint.of_int b in
        Bigint.to_int (Bigint.add ba bb) = a + b
        && Bigint.to_int (Bigint.mul ba bb) = a * b
        && Bigint.compare ba bb = Stdlib.compare a b);
    prop "string round trip" 300 arbitrary_bigint (fun a ->
        Bigint.equal a (Bigint.of_string (Bigint.to_string a)));
    prop "hex round trip (non-negative)" 300 arbitrary_bigint (fun a ->
        let a = Bigint.abs a in
        Bigint.equal a (Bigint.of_hex (Bigint.to_hex a)));
    prop "bytes round trip" 300 arbitrary_bigint (fun a ->
        let a = Bigint.abs a in
        Bigint.equal a (Bigint.of_bytes_be (Bigint.to_bytes_be a)));
    prop "shift_left is mul by power of two" 200
      (QCheck.pair arbitrary_bigint QCheck.small_nat)
      (fun (a, n) ->
        let a = Bigint.abs a in
        Bigint.equal (Bigint.shift_left a n)
          (Bigint.mul a (power_of_two n)));
    prop "shift_right is div by power of two" 200
      (QCheck.pair arbitrary_bigint QCheck.small_nat)
      (fun (a, n) ->
        let a = Bigint.abs a in
        Bigint.equal (Bigint.shift_right a n)
          (Bigint.div a (power_of_two n)));
    prop "gcd divides both" 200
      (QCheck.pair arbitrary_bigint arbitrary_bigint)
      (fun (a, b) ->
        QCheck.assume (not (Bigint.is_zero a && Bigint.is_zero b));
        let g = Bigint.gcd a b in
        Bigint.is_zero (Bigint.rem a g) && Bigint.is_zero (Bigint.rem b g));
    prop "xor is self-inverse" 200
      (QCheck.pair arbitrary_bigint arbitrary_bigint)
      (fun (a, b) ->
        let a = Bigint.abs a and b = Bigint.abs b in
        Bigint.equal a (Bigint.logxor (Bigint.logxor a b) b));
    prop "modular inverse really inverts" 100
      (QCheck.pair arbitrary_bigint QCheck.small_nat)
      (fun (a, seed) ->
        let rng = test_rng (seed + 1) in
        let m = Prime.random_prime rng ~bits:80 in
        let a = Bigint.erem (Bigint.abs a) m in
        QCheck.assume (not (Bigint.is_zero a));
        Bigint.is_one (Modular.mul a (Modular.invert a m) m));
    prop "fermat little theorem" 60
      (QCheck.pair arbitrary_bigint QCheck.small_nat)
      (fun (a, seed) ->
        let rng = test_rng (seed + 11) in
        let p = Prime.random_prime rng ~bits:64 in
        let a = Bigint.erem (Bigint.abs a) p in
        QCheck.assume (not (Bigint.is_zero a));
        Bigint.is_one (Modular.powm a (Bigint.pred p) p));
    prop "mont matches modular" 100
      (QCheck.triple arbitrary_bigint arbitrary_bigint QCheck.small_nat)
      (fun (a, b, seed) ->
        let rng = test_rng (seed + 3) in
        let m = Prime.random_prime rng ~bits:96 in
        let ctx = Mont.create m in
        let ma = Mont.of_bigint ctx a and mb = Mont.of_bigint ctx b in
        Bigint.equal
          (Mont.to_bigint ctx (Mont.mul ctx ma mb))
          (Modular.mul (Bigint.erem a m) (Bigint.erem b m) m));
  ]
  @ List.map
      (fun (name, p) ->
        let ctx = Mont.create p in
        let half = Bigint.shift_right p 1 and quarter = Bigint.shift_right (Bigint.succ p) 2 in
        (* Euler's criterion: a ≠ 0 is a square exactly when a^((p−1)/2) = 1;
           a root is a^((p+1)/4), squared back, and a square has one *)
        prop ("mont sqrt = euler (" ^ name ^ ")") 40 QCheck.small_nat
          (fun seed ->
            let rng = test_rng (seed + 41) in
            let b = Bigint.random_below rng p in
            List.for_all
              (fun a ->
                let euler = Modular.powm a half p in
                match Mont.sqrt ctx (Mont.of_bigint ctx a) with
                | Some r ->
                  let r = Mont.to_bigint ctx r in
                  (Bigint.is_zero a || Bigint.is_one euler)
                  && Bigint.equal r (Modular.powm a quarter p)
                  && Bigint.equal (Modular.mul r r p) a
                | None -> Bigint.equal euler (Bigint.pred p))
              [ Bigint.random_below rng p; Modular.mul b b p; Bigint.zero; Bigint.pred p ]))
      (("tiny", List.nth preset_moduli 0)
      :: ("light", List.nth preset_moduli 1)
      :: sqrt_secp_moduli)

let suite =
  [
    ( "bigint",
      [
        Alcotest.test_case "known vectors" `Quick test_known_vectors;
        Alcotest.test_case "small arithmetic" `Quick test_small_arithmetic;
        Alcotest.test_case "bytes round trip" `Quick test_bytes_round_trip;
        Alcotest.test_case "shifts and bits" `Quick test_shift_and_bits;
        Alcotest.test_case "division edges" `Quick test_division_edges;
        Alcotest.test_case "3000-bit products" `Quick test_large_products;
        Alcotest.test_case "modular edges" `Quick test_modular_edges;
        Alcotest.test_case "primality" `Quick test_primes;
        Alcotest.test_case "randomness" `Quick test_random;
        Alcotest.test_case "montgomery" `Quick test_mont;
        Alcotest.test_case "montgomery kernel vs modular" `Quick test_mont_kernel;
        Alcotest.test_case "montgomery width guard" `Quick test_mont_width_guard;
        Alcotest.test_case "montgomery sqrt edges" `Quick test_mont_sqrt_edges;
        Alcotest.test_case "exponentiation chain vs ladder" `Quick test_chain_vs_ladder;
        Alcotest.test_case "lehmer invert vs euclid" `Quick test_invert_vs_euclid;
        Alcotest.test_case "lehmer invert on long and lopsided sequences" `Quick
          test_invert_sequences;
        Alcotest.test_case "montgomery inverse vs euclid" `Quick test_mont_inverse;
      ] );
    ("bigint-properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

let () = Alcotest.run "peace-bigint" suite
