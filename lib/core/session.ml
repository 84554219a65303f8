open Peace_hash
open Peace_cipher
open Peace_pairing

type role = Initiator | Responder

type t = {
  id : string;
  mutable send_key : string;
  mutable recv_key : string;
  mutable generation : int;
  role : role;
  mutable send_counter : int;
  mutable recv_floor : int; (* highest counter accepted so far *)
}

let id t = t.id
let short_id id = Sha256.to_hex (String.sub id 0 (min 8 (String.length id)))
let role t = t.role

let derive config ~role ~local_secret ~remote_share ~initiator_share
    ~responder_share =
  let params = config.Config.pairing in
  let shared = G1.mul params local_secret remote_share in
  let shared_bytes =
    match G1.to_affine params shared with
    | Some (x, y) ->
      Peace_bigint.Bigint.to_bytes_be x ^ Peace_bigint.Bigint.to_bytes_be y
    | None -> invalid_arg "Session.derive: degenerate shared secret"
  in
  let ia = G1.encode params initiator_share in
  let rb = G1.encode params responder_share in
  let transcript = ia ^ rb in
  let okm = Hmac.hkdf ~salt:transcript ~info:"peace-session-keys" shared_bytes 64 in
  let i2r = String.sub okm 0 32 and r2i = String.sub okm 32 32 in
  let send_key, recv_key =
    match role with Initiator -> (i2r, r2i) | Responder -> (r2i, i2r)
  in
  let id = Sha256.to_hex (Sha256.digest ("peace-session-id" ^ transcript)) in
  {
    id;
    send_key;
    recv_key;
    generation = 0;
    role;
    send_counter = 0;
    recv_floor = -1;
  }

let rekey t =
  (* one-way: the old keys are not derivable from the new ones *)
  t.send_key <- Hmac.hkdf ~info:"peace-session-ratchet" t.send_key 32;
  t.recv_key <- Hmac.hkdf ~info:"peace-session-ratchet" t.recv_key 32;
  t.generation <- t.generation + 1;
  t.send_counter <- 0;
  t.recv_floor <- -1

let generation t = t.generation

let matches a b =
  String.equal a.id b.id
  && Hmac.equal_constant_time a.send_key b.recv_key
  && Hmac.equal_constant_time a.recv_key b.send_key

let nonce_of_counter counter =
  let b = Bytes.make Aead.nonce_size '\000' in
  Bytes.set_int64_be b (Aead.nonce_size - 8) (Int64.of_int counter);
  Bytes.unsafe_to_string b

let seal t plaintext =
  let counter = t.send_counter in
  t.send_counter <- counter + 1;
  let w = Wire.writer () in
  Wire.u64 w counter;
  Wire.bytes w
    (Aead.encrypt ~key:t.send_key ~nonce:(nonce_of_counter counter) ~aad:t.id
       plaintext);
  Wire.contents w

let open_ t message =
  let open Wire in
  let r = reader message in
  match
    let* counter = read_u64 r in
    let* sealed = read_bytes r in
    let* () = expect_end r in
    Ok (counter, sealed)
  with
  | Error _ -> None
  | Ok (counter, sealed) ->
    if counter <= t.recv_floor then None (* replay *)
    else begin
      match
        Aead.decrypt ~key:t.recv_key ~nonce:(nonce_of_counter counter)
          ~aad:t.id sealed
      with
      | Some plaintext ->
        t.recv_floor <- counter;
        Some plaintext
      | None -> None
    end
