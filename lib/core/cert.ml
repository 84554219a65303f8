open Peace_ec

type t = {
  router_id : int;
  public_key : Curve.point;
  expires_at : int;
  signature : Ecdsa.signature;
}

type error = Expired | Bad_signature | Revoked | Malformed

let pp_error fmt = function
  | Expired -> Format.pp_print_string fmt "certificate expired"
  | Bad_signature -> Format.pp_print_string fmt "bad signature"
  | Revoked -> Format.pp_print_string fmt "revoked"
  | Malformed -> Format.pp_print_string fmt "malformed"

let cert_payload config ~router_id ~public_key ~expires_at =
  let w = Wire.writer () in
  Wire.raw w "peace-cert-v1";
  Wire.u32 w router_id;
  Wire.bytes w (Curve.encode config.Config.curve public_key);
  Wire.u64 w expires_at;
  Wire.contents w

let issue config ~operator_key ~router_id ~public_key ~now =
  let expires_at = now + config.Config.cert_lifetime_ms in
  let payload = cert_payload config ~router_id ~public_key ~expires_at in
  {
    router_id;
    public_key;
    expires_at;
    signature = Ecdsa.sign config.Config.curve ~key:operator_key payload;
  }

let expired cert ~now = now > cert.expires_at

let verify config ~operator_public ~now cert =
  if expired cert ~now then Error Expired
  else begin
    let payload =
      cert_payload config ~router_id:cert.router_id
        ~public_key:cert.public_key ~expires_at:cert.expires_at
    in
    if Ecdsa.verify config.Config.curve ~public:operator_public payload
         cert.signature
    then Ok ()
    else Error Bad_signature
  end

let to_bytes config cert =
  let w = Wire.writer () in
  Wire.u32 w cert.router_id;
  Wire.bytes w (Curve.encode config.Config.curve cert.public_key);
  Wire.u64 w cert.expires_at;
  Wire.bytes w (Ecdsa.signature_to_bytes config.Config.curve cert.signature);
  Wire.contents w

let of_bytes config s =
  let open Wire in
  let r = reader s in
  match
    let* router_id = read_u32 r in
    let* pk_bytes = read_bytes r in
    let* expires_at = read_u64 r in
    let* sig_bytes = read_bytes r in
    let* () = expect_end r in
    (* the signature's length check before the point's field conversions
       and curve equation *)
    match Ecdsa.signature_of_bytes config.Config.curve sig_bytes with
    | None -> Error "Cert: bad signature"
    | Some signature -> (
      match Curve.decode config.Config.curve pk_bytes with
      | Some public_key -> Ok { router_id; public_key; expires_at; signature }
      | None -> Error "Cert: bad point")
  with
  | Ok cert -> Some cert
  | Error _ -> None

(* ------------------------------------------------------------------ *)

type crl = {
  seq : int;
  issued_at : int;
  revoked_routers : int list;
  crl_signature : Ecdsa.signature;
}

let crl_payload ~seq ~issued_at ~revoked =
  let w = Wire.writer () in
  Wire.raw w "peace-crl-v1";
  Wire.u32 w seq;
  Wire.u64 w issued_at;
  Wire.u32 w (List.length revoked);
  List.iter (Wire.u32 w) revoked;
  Wire.contents w

let issue_crl config ~operator_key ~seq ~now ~revoked =
  let revoked = List.sort_uniq compare revoked in
  {
    seq;
    issued_at = now;
    revoked_routers = revoked;
    crl_signature =
      Ecdsa.sign config.Config.curve ~key:operator_key
        (crl_payload ~seq ~issued_at:now ~revoked);
  }

let verify_crl config ~operator_public crl =
  let payload =
    crl_payload ~seq:crl.seq ~issued_at:crl.issued_at
      ~revoked:crl.revoked_routers
  in
  if Ecdsa.verify config.Config.curve ~public:operator_public payload
       crl.crl_signature
  then Ok ()
  else Error Bad_signature

let crl_mem crl ~router_id = List.mem router_id crl.revoked_routers

let crl_is_stale config crl ~now =
  now - crl.issued_at > config.Config.crl_period_ms

let crl_to_bytes config crl =
  let w = Wire.writer () in
  Wire.u32 w crl.seq;
  Wire.u64 w crl.issued_at;
  Wire.u32 w (List.length crl.revoked_routers);
  List.iter (Wire.u32 w) crl.revoked_routers;
  Wire.bytes w (Ecdsa.signature_to_bytes config.Config.curve crl.crl_signature);
  Wire.contents w

let crl_of_bytes config s =
  let open Wire in
  let r = reader s in
  match
    let* seq = read_u32 r in
    let* issued_at = read_u64 r in
    let* count = read_u32 r in
    if count > 1_000_000 then Error "Crl: absurd count"
    else begin
      let rec read_ids n acc =
        if n = 0 then Ok (List.rev acc)
        else
          let* id = read_u32 r in
          read_ids (n - 1) (id :: acc)
      in
      let* revoked_routers = read_ids count [] in
      let* sig_bytes = read_bytes r in
      let* () = expect_end r in
      match Ecdsa.signature_of_bytes config.Config.curve sig_bytes with
      | Some crl_signature -> Ok { seq; issued_at; revoked_routers; crl_signature }
      | None -> Error "Crl: bad signature encoding"
    end
  with
  | Ok crl -> Some crl
  | Error _ -> None
