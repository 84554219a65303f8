(* FIPS / RFC vectors for the hash library, plus streaming and DRBG tests. *)

open Peace_hash

let check_hex name expected got =
  Alcotest.(check string) name expected (Sha256.to_hex got)

let test_sha256_vectors () =
  check_hex "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest "");
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest "abc");
  check_hex "two-block"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest (String.make 1_000_000 'a'))

let test_sha256_streaming () =
  (* arbitrary chunking must agree with one-shot *)
  let message = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let expected = Sha256.digest message in
  let chunkings = [ [ 1000 ]; [ 1; 999 ]; [ 63; 1; 936 ]; [ 64; 64; 872 ]; [ 10; 20; 970 ] ] in
  List.iter
    (fun chunks ->
      let ctx = Sha256.init () in
      let pos = ref 0 in
      List.iter
        (fun len ->
          Sha256.update ctx (String.sub message !pos len);
          pos := !pos + len)
        chunks;
      Alcotest.(check string) "chunked = one-shot" (Sha256.to_hex expected)
        (Sha256.to_hex (Sha256.finalize ctx)))
    chunkings

let test_hmac_vectors () =
  let fox = "The quick brown fox jumps over the lazy dog" in
  check_hex "hmac-sha256"
    "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
    (Hmac.sha256 ~key:"key" fox);
  (* keys longer than the block size are hashed first *)
  check_hex "hmac long key"
    "e2adadca233bc31c6e6126c865132c3e945f9dedd44797a1e5acc3c037bc21fc"
    (Hmac.sha256 ~key:(String.make 200 'k') "msg")

let test_hkdf_rfc5869 () =
  let ikm = String.make 22 '\x0b' in
  let salt = String.init 13 Char.chr in
  let info = String.init 10 (fun i -> Char.chr (0xf0 + i)) in
  check_hex "hkdf prk"
    "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    (Hmac.hkdf_extract ~salt ikm);
  check_hex "hkdf okm"
    "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    (Hmac.hkdf ~salt ~info ikm 42)

(* RFC 4231 test cases 1-4, 6 and 7 (case 5 truncates the tag): keys
   shorter than, and (6, 7) longer than, the 64-byte block *)
let test_hmac_rfc4231 () =
  let cases =
    [
      ( "case 1", String.make 20 '\x0b', "Hi There",
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7" );
      ( "case 2", "Jefe", "what do ya want for nothing?",
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843" );
      ( "case 3", String.make 20 '\xaa', String.make 50 '\xdd',
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe" );
      ( "case 4", String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b" );
      ( "case 6", String.make 131 '\xaa',
        "Test Using Larger Than Block-Size Key - Hash Key First",
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54" );
      ( "case 7", String.make 131 '\xaa',
        "This is a test using a larger than block-size key and a larger than \
         block-size data. The key needs to be hashed before being used by the \
         HMAC algorithm.",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2" );
    ]
  in
  List.iter (fun (name, key, msg, tag) -> check_hex name tag (Hmac.sha256 ~key msg)) cases

(* RFC 5869 A.2 (80-byte inputs, three expand blocks) and A.3 (empty salt
   and info: the salt defaults to 32 zero bytes) *)
let test_hkdf_rfc5869_long_and_empty () =
  let range lo hi = String.init (hi - lo) (fun i -> Char.chr (lo + i)) in
  let ikm = range 0x00 0x50 and salt = range 0x60 0xb0 and info = range 0xb0 0x100 in
  check_hex "long prk"
    "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
    (Hmac.hkdf_extract ~salt ikm);
  check_hex "long okm"
    "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87"
    (Hmac.hkdf ~salt ~info ikm 82);
  let ikm = String.make 22 '\x0b' in
  check_hex "empty-salt prk"
    "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
    (Hmac.hkdf_extract ikm);
  check_hex "empty-salt okm"
    "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    (Hmac.hkdf ~info:"" ikm 42)

(* RFC 5869 caps the output at 255 blocks *)
let test_hkdf_length_bounds () =
  let hkdf n = Hmac.hkdf ~info:"bounds" "ikm" n in
  Alcotest.(check string) "zero length" "" (hkdf 0);
  Alcotest.(check int) "255 blocks" (255 * Sha256.digest_size)
    (String.length (hkdf (255 * Sha256.digest_size)));
  List.iter
    (fun n ->
      Alcotest.check_raises (Printf.sprintf "length %d" n)
        (Invalid_argument "Hmac.hkdf_expand: bad length") (fun () -> ignore (hkdf n)))
    [ -1; (255 * Sha256.digest_size) + 1 ]

let test_constant_time_equal () =
  Alcotest.(check bool) "equal" true (Hmac.equal_constant_time "abcd" "abcd");
  Alcotest.(check bool) "differs" false (Hmac.equal_constant_time "abcd" "abce");
  Alcotest.(check bool) "length differs" false (Hmac.equal_constant_time "ab" "abc");
  Alcotest.(check bool) "empty" true (Hmac.equal_constant_time "" "")

let test_drbg () =
  let d1 = Drbg.create ~seed:"seed material" () in
  let d2 = Drbg.create ~seed:"seed material" () in
  let a = Drbg.generate d1 48 and b = Drbg.generate d2 48 in
  Alcotest.(check string) "deterministic" (Sha256.to_hex a) (Sha256.to_hex b);
  let c = Drbg.generate d1 48 in
  Alcotest.(check bool) "advances" true (a <> c);
  let d3 = Drbg.create ~seed:"other seed" () in
  Alcotest.(check bool) "seed-sensitive" true (Drbg.generate d3 48 <> a);
  let d4 = Drbg.create ~seed:"seed material" ~personalization:"p" () in
  Alcotest.(check bool) "personalization-sensitive" true
    (Drbg.generate d4 48 <> a);
  Drbg.reseed d2 "fresh entropy";
  Alcotest.(check bool) "reseed diverges" true (Drbg.generate d2 48 <> c);
  Alcotest.(check int) "requested length" 100 (String.length (Drbg.generate d1 100));
  Alcotest.(check string) "zero length" "" (Drbg.generate d1 0)

(* [of_hex] takes pairs of hex digits and nothing else: OCaml's
   int_of_string reads "0xa_" as 10, so a decoder built on it would give
   the byte 0x0a a second spelling *)
let test_hex_strict () =
  let dec = Alcotest.(option string) in
  Alcotest.check dec "lower" (Some "\x0a\xff") (Sha256.of_hex "0aff");
  Alcotest.check dec "upper" (Some "\x0a\xff") (Sha256.of_hex "0AFF");
  Alcotest.check dec "empty" (Some "") (Sha256.of_hex "");
  List.iter
    (fun h -> Alcotest.check dec (Printf.sprintf "%S refused" h) None (Sha256.of_hex h))
    [ "a_"; "_a"; "0a_b"; "a"; "0x0a"; "+a"; "-1"; " a"; "a "; "zz"; "0g" ]

let qcheck_tests =
  [
    QCheck.Test.make ~name:"hex round trip" ~count:200 QCheck.string (fun s ->
        Sha256.of_hex (Sha256.to_hex s) = Some s
        && Sha256.of_hex (String.uppercase_ascii (Sha256.to_hex s)) = Some s);
    QCheck.Test.make ~name:"sha256 is 32 bytes" ~count:100 QCheck.string
      (fun s -> String.length (Sha256.digest s) = 32);
    QCheck.Test.make ~name:"split update = one-shot" ~count:100
      (QCheck.pair QCheck.string QCheck.string)
      (fun (a, b) ->
        let ctx = Sha256.init () in
        Sha256.update ctx a;
        Sha256.update ctx b;
        Sha256.finalize ctx = Sha256.digest (a ^ b));
    QCheck.Test.make ~name:"hmac key separation" ~count:100
      (QCheck.pair QCheck.string QCheck.string)
      (fun (k, m) ->
        Hmac.sha256 ~key:k m = Hmac.sha256 ~key:k m
        && Hmac.sha256 ~key:(k ^ "x") m <> Hmac.sha256 ~key:k m);
    QCheck.Test.make ~name:"constant-time equal agrees with (=)" ~count:200
      (QCheck.pair QCheck.string QCheck.string)
      (fun (a, b) -> Hmac.equal_constant_time a b = (a = b));
    (* RFC 2104: a key up to the block size is zero-padded to it, a longer
       key is replaced by its digest; a quarter of the keys straddle the
       64-byte boundary *)
    QCheck.Test.make ~name:"hmac key padding and hashing" ~count:200
      (QCheck.pair
         (QCheck.string_of_size QCheck.Gen.(frequency [ (3, 0 -- 160); (1, 63 -- 65) ]))
         QCheck.string)
      (fun (key, msg) ->
        let block = Sha256.block_size in
        let equivalent =
          if String.length key > block then Sha256.digest key
          else key ^ String.make (block - String.length key) '\000'
        in
        Hmac.sha256 ~key msg = Hmac.sha256 ~key:equivalent msg);
    QCheck.Test.make ~name:"hkdf shorter output is a prefix" ~count:100
      (QCheck.quad QCheck.string QCheck.string (QCheck.int_range 0 200)
         (QCheck.int_range 0 200))
      (fun (ikm, info, a, b) ->
        let short = min a b and long = max a b in
        let okm = Hmac.hkdf ~info ikm long in
        Hmac.hkdf ~info ikm short = String.sub okm 0 short);
  ]

let suite =
  [
    ( "hash",
      [
        Alcotest.test_case "sha256 vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "sha256 streaming" `Quick test_sha256_streaming;
        Alcotest.test_case "hmac vectors" `Quick test_hmac_vectors;
        Alcotest.test_case "hkdf rfc5869" `Quick test_hkdf_rfc5869;
        Alcotest.test_case "hmac rfc4231 vectors" `Quick test_hmac_rfc4231;
        Alcotest.test_case "hkdf rfc5869 long and empty inputs" `Quick
          test_hkdf_rfc5869_long_and_empty;
        Alcotest.test_case "hkdf length bounds" `Quick test_hkdf_length_bounds;
        Alcotest.test_case "constant-time equal" `Quick test_constant_time_equal;
        Alcotest.test_case "hmac-drbg" `Quick test_drbg;
        Alcotest.test_case "hex codec strict" `Quick test_hex_strict;
      ] );
    ("hash-properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

let () = Alcotest.run "peace-hash" suite
