open Peace_bigint
open Peace_hash

type keypair = { d : Bigint.t; q : Curve.point }
type signature = { r : Bigint.t; s : Bigint.t }

let hash_to_scalar curve msg =
  (* leftmost bits of SHA-256(msg), reduced mod n (SEC 1, 4.1.3) *)
  let n = Curve.order curve in
  let digest = Sha256.digest msg in
  let nbits = Bigint.num_bits n in
  let z = Bigint.of_bytes_be digest in
  let z =
    if 8 * String.length digest > nbits then
      Bigint.shift_right z ((8 * String.length digest) - nbits)
    else z
  in
  Bigint.erem z n

let public_of_private curve d = Curve.mul_base curve d

let generate curve rng =
  let n = Curve.order curve in
  let d = Bigint.random_range rng Bigint.one n in
  { d; q = public_of_private curve d }

(* deterministic nonce per RFC 6979: an HMAC-DRBG seeded with (d, h(msg)) *)
let nonce_drbg curve ~d msg_hash =
  let n = Curve.order curve in
  let width = (Bigint.num_bits n + 7) / 8 in
  let seed = Bigint.to_bytes_be ~width d ^ msg_hash in
  let drbg = Drbg.create ~seed ~personalization:"ecdsa-nonce" () in
  fun () -> Bigint.random_range (Drbg.bytes_fn drbg) Bigint.one n

let sign curve ~key msg =
  let n = Curve.order curve in
  let z = hash_to_scalar curve msg in
  let next_nonce = nonce_drbg curve ~d:key.d (Sha256.digest msg) in
  let rec attempt () =
    let k = next_nonce () in
    match Curve.to_affine curve (Curve.mul_base curve k) with
    | None -> attempt ()
    | Some (x, _) ->
      let r = Bigint.erem x n in
      if Bigint.is_zero r then attempt ()
      else begin
        let kinv = Modular.invert k n in
        let s = Modular.mul kinv (Modular.add z (Modular.mul r key.d n) n) n in
        if Bigint.is_zero s then attempt () else { r; s }
      end
  in
  attempt ()

let verify curve ~public msg { r; s } =
  let n = Curve.order curve in
  let in_range v = Bigint.sign v > 0 && Bigint.compare v n < 0 in
  in_range r && in_range s
  && (not (Curve.is_infinity public))
  && Curve.on_curve curve public
  &&
  let z = hash_to_scalar curve msg in
  let w = Modular.invert s n in
  let u1 = Modular.mul z w n in
  let u2 = Modular.mul r w n in
  let point = Curve.mul2 curve u1 (Curve.base curve) u2 public in
  match Curve.to_affine curve point with
  | None -> false
  | Some (x, _) -> Bigint.equal (Bigint.erem x n) r

let scalar_width curve = (Bigint.num_bits (Curve.order curve) + 7) / 8
let signature_size curve = 2 * scalar_width curve

let signature_to_bytes curve { r; s } =
  let width = scalar_width curve in
  Bigint.to_bytes_be ~width r ^ Bigint.to_bytes_be ~width s

let signature_of_bytes curve bytes =
  let width = scalar_width curve in
  if String.length bytes <> 2 * width then None
  else
    Some
      {
        r = Bigint.of_bytes_be (String.sub bytes 0 width);
        s = Bigint.of_bytes_be (String.sub bytes width width);
      }
