open Peace_ec
open Peace_pairing
open Peace_groupsig

type t = {
  seq : int;
  issued_at : int;
  tokens : Group_sig.revocation_token list;
  signature : Ecdsa.signature;
}

let payload config ~seq ~issued_at ~tokens =
  let w = Wire.writer () in
  Wire.raw w "peace-url-v1";
  Wire.u32 w seq;
  Wire.u64 w issued_at;
  Wire.u32 w (List.length tokens);
  List.iter (fun tok -> Wire.bytes w (G1.encode config.Config.pairing tok)) tokens;
  Wire.contents w

let issue config ~operator_key ~seq ~now ~tokens =
  {
    seq;
    issued_at = now;
    tokens;
    signature =
      Ecdsa.sign config.Config.curve ~key:operator_key
        (payload config ~seq ~issued_at:now ~tokens);
  }

let verify config ~operator_public t =
  Ecdsa.verify config.Config.curve ~public:operator_public
    (payload config ~seq:t.seq ~issued_at:t.issued_at ~tokens:t.tokens)
    t.signature

let tokens t = t.tokens
let size t = List.length t.tokens

let mem config t token =
  List.exists (G1.equal config.Config.pairing token) t.tokens

let to_bytes config t =
  let w = Wire.writer () in
  Wire.u32 w t.seq;
  Wire.u64 w t.issued_at;
  Wire.u32 w (List.length t.tokens);
  List.iter (fun tok -> Wire.bytes w (G1.encode config.Config.pairing tok)) t.tokens;
  Wire.bytes w (Ecdsa.signature_to_bytes config.Config.curve t.signature);
  Wire.contents w

(* the framing and the signature's encoding first, the tokens last: a
   malformed list stops before its first token decode *)
let decode config s =
  let open Wire in
  let r = reader s in
  match
    let* seq = read_u32 r in
    let* issued_at = read_u64 r in
    let* count = read_u32 r in
    if count > 1_000_000 then Error "Url: absurd count"
    else begin
      let rec read_encodings n acc =
        if n = 0 then Ok (List.rev acc)
        else
          let* bytes = read_bytes r in
          read_encodings (n - 1) (bytes :: acc)
      in
      let* encodings = read_encodings count [] in
      let* sig_bytes = read_bytes r in
      let* () = expect_end r in
      match Ecdsa.signature_of_bytes config.Config.curve sig_bytes with
      | None -> Error "Url: bad signature encoding"
      | Some signature ->
        let rec decode_tokens acc = function
          | [] -> Ok { seq; issued_at; tokens = List.rev acc; signature }
          | bytes :: rest -> (
            match G1.decode config.Config.pairing bytes with
            | Some tok -> decode_tokens (tok :: acc) rest
            | None -> Error "Url: bad token")
        in
        decode_tokens [] encodings
    end
  with
  | Ok t -> Some t
  | Error _ -> None

(* Every router carries the operator's one current URL until the next
   issue, so consecutive beacons repeat these bytes, and keeping the last
   decode spares each of them a decode of every token. *)
let of_bytes = Kept.decoder decode

let empty config ~operator_key ~now = issue config ~operator_key ~seq:0 ~now ~tokens:[]

let pp fmt t =
  Format.fprintf fmt "URL#%d (%d tokens, issued %d)" t.seq (List.length t.tokens)
    t.issued_at
