(* RFC 8439 vectors for ChaCha20 and round-trip/tamper tests for the AEAD. *)

open Peace_cipher
open Peace_hash

let hex_to_string h = Option.get (Sha256.of_hex h)

let rfc_key = String.init 32 Char.chr

let test_chacha20_block () =
  (* RFC 8439 section 2.3.2 *)
  let nonce = hex_to_string "000000090000004a00000000" in
  let ks = Chacha20.block ~key:rfc_key ~nonce ~counter:1 in
  Alcotest.(check string) "block vector"
    "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    (Sha256.to_hex ks)

let test_chacha20_encrypt () =
  (* RFC 8439 section 2.4.2 *)
  let nonce = hex_to_string "000000000000004a00000000" in
  let plaintext =
    "Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it."
  in
  let ciphertext = Chacha20.xor ~key:rfc_key ~nonce ~counter:1 plaintext in
  Alcotest.(check string) "ciphertext vector"
    "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
    (Sha256.to_hex ciphertext);
  Alcotest.(check string) "xor round trip" plaintext
    (Chacha20.xor ~key:rfc_key ~nonce ~counter:1 ciphertext)

(* RFC 8439 appendix A.1: keystream blocks for zero and one-bit keys and
   nonces at counters 0, 1 and 2 *)
let test_chacha20_keystream_vectors () =
  let zero_key = String.make 32 '\000' and zero_nonce = String.make 12 '\000' in
  let cases =
    [
      ( "test vector 1", zero_key, zero_nonce, 0,
        "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586" );
      ( "test vector 2", zero_key, zero_nonce, 1,
        "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f" );
      ( "test vector 3", String.make 31 '\000' ^ "\001", zero_nonce, 1,
        "3aeb5224ecf849929b9d828db1ced4dd832025e8018b8160b82284f3c949aa5a8eca00bbb4a73bdad192b5c42f73f2fd4e273644c8b36125a64addeb006c13a0" );
      ( "test vector 4", "\000\255" ^ String.make 30 '\000', zero_nonce, 2,
        "72d54dfbf12ec44b362692df94137f328fea8da73990265ec1bbbea1ae9af0ca13b25aa26cb4a648cb9b9d1be65b2c0924a66c54d545ec1b7374f4872e99f096" );
      ( "test vector 5", zero_key, String.make 11 '\000' ^ "\002", 0,
        "c2c64d378cd536374ae204b9ef933fcd1a8b2288b3dfa49672ab765b54ee27c78a970e0e955c14f3a88e741b97c286f75f8fc299e8148362fa198a39531bed6d" );
    ]
  in
  List.iter
    (fun (name, key, nonce, counter, expected) ->
      Alcotest.(check string) name expected
        (Sha256.to_hex (Chacha20.block ~key ~nonce ~counter)))
    cases

(* RFC 8439 appendix A.2 test vector 3: two blocks from counter 42 *)
let test_chacha20_counter42_vector () =
  let key = hex_to_string "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0" in
  let nonce = String.make 11 '\000' ^ "\002" in
  let plaintext =
    "'Twas brillig, and the slithy toves\nDid gyre and gimble in the wabe:\n\
     All mimsy were the borogoves,\nAnd the mome raths outgrabe."
  in
  Alcotest.(check string) "ciphertext vector"
    "62e6347f95ed87a45ffae7426f27a1df5fb69110044c0d73118effa95b01e5cf166d3df2d721caf9b21e5fb14c616871fd84c54f9d65b283196c7fe4f60553ebf39c6402c42234e32a356b3e764312a61a5532055716ead6962568f87d3f3f7704c6a8d1bcd1bf4d50d6154b6da731b187b58dfd728afa36757a797ac188d1"
    (Sha256.to_hex (Chacha20.xor ~key ~nonce ~counter:42 plaintext))

let test_chacha20_errors () =
  Alcotest.check_raises "short key" (Invalid_argument "Chacha20: key must be 32 bytes")
    (fun () -> ignore (Chacha20.block ~key:"short" ~nonce:(String.make 12 '\000') ~counter:0));
  Alcotest.check_raises "short nonce"
    (Invalid_argument "Chacha20: nonce must be 12 bytes") (fun () ->
      ignore (Chacha20.block ~key:rfc_key ~nonce:"short" ~counter:0))

let key = String.init 32 (fun i -> Char.chr (255 - i))
let nonce = String.make 12 '\x42'

let test_aead_round_trip () =
  let plaintext = "attack at dawn" and aad = "session-0042" in
  let sealed = Aead.encrypt ~key ~nonce ~aad plaintext in
  Alcotest.(check int) "ciphertext length" (String.length plaintext + Aead.tag_size)
    (String.length sealed);
  (match Aead.decrypt ~key ~nonce ~aad sealed with
  | Some p -> Alcotest.(check string) "round trip" plaintext p
  | None -> Alcotest.fail "decrypt failed");
  (match Aead.decrypt ~key ~nonce ~aad:"" sealed with
  | Some _ -> Alcotest.fail "wrong aad accepted"
  | None -> ());
  (match Aead.decrypt ~key:(String.make 32 'x') ~nonce ~aad sealed with
  | Some _ -> Alcotest.fail "wrong key accepted"
  | None -> ());
  match Aead.decrypt ~key ~nonce:(String.make 12 '\x43') ~aad sealed with
  | Some _ -> Alcotest.fail "wrong nonce accepted"
  | None -> ()

let test_aead_tamper () =
  let sealed = Bytes.of_string (Aead.encrypt ~key ~nonce "hello mesh network") in
  for i = 0 to Bytes.length sealed - 1 do
    let original = Bytes.get sealed i in
    Bytes.set sealed i (Char.chr (Char.code original lxor 1));
    (match Aead.decrypt ~key ~nonce (Bytes.to_string sealed) with
    | Some _ -> Alcotest.failf "tampered byte %d accepted" i
    | None -> ());
    Bytes.set sealed i original
  done;
  (* truncation *)
  let s = Bytes.to_string sealed in
  (match Aead.decrypt ~key ~nonce (String.sub s 0 (String.length s - 1)) with
  | Some _ -> Alcotest.fail "truncated message accepted"
  | None -> ());
  match Aead.decrypt ~key ~nonce "" with
  | Some _ -> Alcotest.fail "empty message accepted"
  | None -> ()

let test_aead_empty_plaintext () =
  let sealed = Aead.encrypt ~key ~nonce "" in
  match Aead.decrypt ~key ~nonce sealed with
  | Some "" -> ()
  | Some _ -> Alcotest.fail "nonempty decryption"
  | None -> Alcotest.fail "decrypt failed"

let qcheck_tests =
  [
    QCheck.Test.make ~name:"aead round trip" ~count:100
      (QCheck.pair QCheck.string QCheck.string)
      (fun (plaintext, aad) ->
        match Aead.decrypt ~key ~nonce ~aad (Aead.encrypt ~key ~nonce ~aad plaintext) with
        | Some p -> p = plaintext
        | None -> false);
    QCheck.Test.make ~name:"chacha xor involutive" ~count:100 QCheck.string
      (fun data -> Chacha20.xor ~key ~nonce (Chacha20.xor ~key ~nonce data) = data);
    (* xor steps the block counter once per 64 bytes *)
    QCheck.Test.make ~name:"chacha xor follows consecutive blocks" ~count:100
      (QCheck.pair (QCheck.string_of_size QCheck.Gen.(0 -- 300)) (QCheck.int_range 0 1000))
      (fun (data, counter) ->
        let keystream =
          String.concat ""
            (List.init
               ((String.length data + 63) / 64)
               (fun i -> Chacha20.block ~key ~nonce ~counter:(counter + i)))
        in
        Chacha20.xor ~key ~nonce ~counter data
        = String.mapi (fun i c -> Char.chr (Char.code c lxor Char.code keystream.[i])) data);
    QCheck.Test.make ~name:"distinct nonces give distinct keystreams" ~count:50
      QCheck.small_nat
      (fun i ->
        let n1 = String.make 12 (Char.chr (i mod 256)) in
        let n2 = String.make 12 (Char.chr ((i + 1) mod 256)) in
        Chacha20.block ~key ~nonce:n1 ~counter:0
        <> Chacha20.block ~key ~nonce:n2 ~counter:0);
  ]

let suite =
  [
    ( "cipher",
      [
        Alcotest.test_case "chacha20 block vector" `Quick test_chacha20_block;
        Alcotest.test_case "chacha20 encrypt vector" `Quick test_chacha20_encrypt;
        Alcotest.test_case "chacha20 keystream vectors" `Quick test_chacha20_keystream_vectors;
        Alcotest.test_case "chacha20 counter 42 vector" `Quick test_chacha20_counter42_vector;
        Alcotest.test_case "chacha20 input validation" `Quick test_chacha20_errors;
        Alcotest.test_case "aead round trip" `Quick test_aead_round_trip;
        Alcotest.test_case "aead tamper rejection" `Quick test_aead_tamper;
        Alcotest.test_case "aead empty plaintext" `Quick test_aead_empty_plaintext;
      ] );
    ("cipher-properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]

let () = Alcotest.run "peace-cipher" suite
