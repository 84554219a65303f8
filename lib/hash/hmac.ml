let xor_pad key block_size pad =
  let b = Bytes.make block_size pad in
  String.iteri
    (fun i c -> Bytes.set b i (Char.chr (Char.code c lxor Char.code pad)))
    key;
  Bytes.unsafe_to_string b

let sha256 ~key msg =
  let block_size = Sha256.block_size in
  let key = if String.length key > block_size then Sha256.digest key else key in
  let ipad = xor_pad key block_size '\x36' in
  let opad = xor_pad key block_size '\x5c' in
  Sha256.digest (opad ^ Sha256.digest (ipad ^ msg))

let equal_constant_time a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri
         (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i]))
         a;
       !acc = 0
     end

let hkdf_extract ?(salt = "") ikm =
  let salt = if salt = "" then String.make Sha256.digest_size '\000' else salt in
  sha256 ~key:salt ikm

let hkdf_expand ~prk ~info len =
  if len < 0 || len > 255 * Sha256.digest_size then
    invalid_arg "Hmac.hkdf_expand: bad length";
  let buf = Buffer.create len in
  let t = ref "" in
  let i = ref 1 in
  while Buffer.length buf < len do
    t := sha256 ~key:prk (!t ^ info ^ String.make 1 (Char.chr !i));
    Buffer.add_string buf !t;
    incr i
  done;
  String.sub (Buffer.contents buf) 0 len

let hkdf ?salt ~info ikm len = hkdf_expand ~prk:(hkdf_extract ?salt ikm) ~info len
