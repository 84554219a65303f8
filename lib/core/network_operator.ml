open Peace_bigint
open Peace_ec
open Peace_pairing
open Peace_groupsig
module Audit = Peace_obs.Audit

type gm_share = { index : int; grp_secret : Bigint.t; member_secret : Bigint.t }
type ttp_share = { ts_group_id : int; ts_index : int; blinded_a : string }

type group_registration = {
  reg_group_id : int;
  gm_shares : gm_share list;
  ttp_shares : ttp_share list;
  no_signature : Ecdsa.signature;
}

type group_record = {
  grp_secret : Bigint.t;
  keys : (int, Group_sig.gsk) Hashtbl.t;
  mutable next_index : int;
  mutable gm_receipt_key : Curve.point option;
  mutable gm_receipt : Ecdsa.signature option;
  mutable last_payload : string; (* the batch payload awaiting a receipt *)
}

type t = {
  config : Config.t;
  mutable issuer : Group_sig.issuer;
  mutable epoch : int;
  operator_key : Ecdsa.keypair;
  rng : int -> string;
  groups : (int, group_record) Hashtbl.t;
  routers : (int, Cert.t) Hashtbl.t;
  mutable revoked_routers : int list;
  mutable revoked_tokens : (Group_sig.revocation_token * (int * int)) list;
  mutable crl_seq : int;
  mutable url_seq : int;
  mutable crl : Cert.crl;
  mutable url : Url.t;
}

type audit_finding = {
  found_group_id : int;
  found_index : int;
  found_token : Group_sig.revocation_token;
}

let now t = Clock.now t.config.Config.clock

let create config ~rng =
  let issuer = Group_sig.setup config.Config.pairing rng in
  let operator_key = Ecdsa.generate config.Config.curve rng in
  let t0 = Clock.now config.Config.clock in
  {
    config;
    issuer;
    epoch = 0;
    operator_key;
    rng;
    groups = Hashtbl.create 16;
    routers = Hashtbl.create 16;
    revoked_routers = [];
    revoked_tokens = [];
    crl_seq = 0;
    url_seq = 0;
    crl = Cert.issue_crl config ~operator_key ~seq:0 ~now:t0 ~revoked:[];
    url = Url.issue config ~operator_key ~seq:0 ~now:t0 ~tokens:[];
  }

let gpk t = t.issuer.Group_sig.gpk
let public_key t = t.operator_key.Ecdsa.q

let sign_audit t payload =
  Ecdsa.sign t.config.Config.curve ~key:t.operator_key payload

let group_count t = Hashtbl.length t.groups

let grt_size t =
  Hashtbl.fold (fun _ record acc -> acc + Hashtbl.length record.keys) t.groups 0

let registration_payload config group_id shares =
  let w = Wire.writer () in
  Wire.raw w "peace-registration-v1";
  Wire.u32 w group_id;
  Wire.u32 w (List.length shares);
  List.iter
    (fun share ->
      Wire.u32 w share.index;
      Wire.bytes w (Bigint.to_bytes_be share.grp_secret);
      Wire.bytes w (Bigint.to_bytes_be share.member_secret))
    shares;
  ignore config;
  Wire.contents w

let issue_batch t group_id record size =
  let params = t.config.Config.pairing in
  let rec issue_keys n acc =
    if n = 0 then List.rev acc
    else begin
      let gsk = Group_sig.issue t.issuer ~grp:record.grp_secret t.rng in
      let index = record.next_index in
      record.next_index <- index + 1;
      Hashtbl.replace record.keys index gsk;
      issue_keys (n - 1) ((index, gsk) :: acc)
    end
  in
  let issued = issue_keys size [] in
  let gm_shares =
    List.map
      (fun (index, gsk) ->
        {
          index;
          grp_secret = record.grp_secret;
          member_secret = gsk.Group_sig.x;
        })
      issued
  in
  let ttp_shares =
    List.map
      (fun (index, gsk) ->
        {
          ts_group_id = group_id;
          ts_index = index;
          blinded_a =
            Blinding.apply ~x:gsk.Group_sig.x
              (G1.encode params gsk.Group_sig.a);
        })
      issued
  in
  let payload = registration_payload t.config group_id gm_shares in
  record.last_payload <- payload;
  {
    reg_group_id = group_id;
    gm_shares;
    ttp_shares;
    no_signature = Ecdsa.sign t.config.Config.curve ~key:t.operator_key payload;
  }

let register_group t ~group_id ~size =
  if Hashtbl.mem t.groups group_id then
    invalid_arg "Network_operator.register_group: group exists";
  let record =
    {
      grp_secret = Bigint.random_range t.rng Bigint.one t.config.Config.pairing.Params.q;
      keys = Hashtbl.create (2 * size);
      next_index = 0;
      gm_receipt_key = None;
      gm_receipt = None;
      last_payload = "";
    }
  in
  Hashtbl.replace t.groups group_id record;
  issue_batch t group_id record size

let extend_group t ~group_id ~size =
  match Hashtbl.find_opt t.groups group_id with
  | None -> invalid_arg "Network_operator.extend_group: unknown group"
  | Some record -> issue_batch t group_id record size

let set_gm_receipt_key t ~group_id key =
  match Hashtbl.find_opt t.groups group_id with
  | None -> invalid_arg "Network_operator.set_gm_receipt_key: unknown group"
  | Some record -> record.gm_receipt_key <- Some key

let record_gm_receipt t ~group_id signature =
  match Hashtbl.find_opt t.groups group_id with
  | None -> false
  | Some record -> begin
    match record.gm_receipt_key with
    | None -> false
    | Some gm_public ->
      (* the receipt counter-signs the latest batch payload *)
      if
        record.last_payload <> ""
        && Ecdsa.verify t.config.Config.curve ~public:gm_public
             record.last_payload signature
      then begin
        record.gm_receipt <- Some signature;
        true
      end
      else false
  end

(* --- routers --- *)

let reissue_crl t =
  t.crl_seq <- t.crl_seq + 1;
  t.crl <-
    Cert.issue_crl t.config ~operator_key:t.operator_key ~seq:t.crl_seq
      ~now:(now t) ~revoked:t.revoked_routers;
  Audit.emit ~kind:"revocation_update"
    [
      ("list", "crl");
      ("seq", string_of_int t.crl_seq);
      ("entries", string_of_int (List.length t.revoked_routers));
      ("epoch", string_of_int t.epoch);
    ]

let reissue_url t =
  t.url_seq <- t.url_seq + 1;
  t.url <-
    Url.issue t.config ~operator_key:t.operator_key ~seq:t.url_seq ~now:(now t)
      ~tokens:(List.map fst t.revoked_tokens);
  Audit.emit ~kind:"revocation_update"
    [
      ("list", "url");
      ("seq", string_of_int t.url_seq);
      ("entries", string_of_int (List.length t.revoked_tokens));
      ("epoch", string_of_int t.epoch);
    ]

let register_router t ~router_id ~router_public =
  let cert =
    Cert.issue t.config ~operator_key:t.operator_key ~router_id
      ~public_key:router_public ~now:(now t)
  in
  Hashtbl.replace t.routers router_id cert;
  cert

let revoke_router t ~router_id =
  if not (List.mem router_id t.revoked_routers) then begin
    t.revoked_routers <- router_id :: t.revoked_routers;
    reissue_crl t
  end

let revoke_user_key t ~group_id ~index =
  let record =
    match Hashtbl.find_opt t.groups group_id with
    | Some r -> r
    | None -> raise Not_found
  in
  let gsk =
    match Hashtbl.find_opt record.keys index with
    | Some k -> k
    | None -> raise Not_found
  in
  let token = Group_sig.token_of_gsk gsk in
  let already =
    List.exists
      (fun (tok, _) -> G1.equal t.config.Config.pairing tok token)
      t.revoked_tokens
  in
  if not already then begin
    t.revoked_tokens <- (token, (group_id, index)) :: t.revoked_tokens;
    reissue_url t
  end

let refresh_lists t =
  reissue_crl t;
  reissue_url t

let current_crl t = t.crl
let current_url t = t.url

(* --- audit (§IV-D) --- *)

let audit t ~msg signature =
  let grt =
    Hashtbl.fold
      (fun group_id record acc ->
        Hashtbl.fold
          (fun index gsk acc ->
            (Group_sig.token_of_gsk gsk, (group_id, index)) :: acc)
          record.keys acc)
      t.groups []
  in
  match Group_sig.open_signature (gpk t) ~grt ~msg signature with
  | None ->
    Audit.emit ~kind:"group_audit" [ ("opened", "false") ];
    None
  | Some (group_id, index) ->
    let record = Hashtbl.find t.groups group_id in
    let gsk = Hashtbl.find record.keys index in
    Audit.emit ~kind:"group_audit"
      [ ("opened", "true"); ("group", string_of_int group_id) ];
    Some
      {
        found_group_id = group_id;
        found_index = index;
        found_token = Group_sig.token_of_gsk gsk;
      }


(* --- epoch rotation (§V-A group public key update / URL compaction) --- *)

let epoch t = t.epoch

let rotate_epoch t =
  let revoked_of group_id =
    List.filter_map
      (fun (_tok, (gid, index)) -> if gid = group_id then Some index else None)
      t.revoked_tokens
  in
  (* fresh master secret and group public key *)
  t.issuer <- Group_sig.setup t.config.Config.pairing t.rng;
  t.epoch <- t.epoch + 1;
  let batches =
    Hashtbl.fold
      (fun group_id record acc ->
        let revoked = revoked_of group_id in
        let survivors =
          Hashtbl.fold
            (fun index _old acc ->
              if List.mem index revoked then acc else index :: acc)
            record.keys []
          |> List.sort compare
        in
        Hashtbl.reset record.keys;
        let issued =
          List.map
            (fun index ->
              let gsk = Group_sig.issue t.issuer ~grp:record.grp_secret t.rng in
              Hashtbl.replace record.keys index gsk;
              (index, gsk))
            survivors
        in
        let params = t.config.Config.pairing in
        let gm_shares =
          List.map
            (fun (index, gsk) ->
              { index; grp_secret = record.grp_secret; member_secret = gsk.Group_sig.x })
            issued
        in
        let ttp_shares =
          List.map
            (fun (index, gsk) ->
              {
                ts_group_id = group_id;
                ts_index = index;
                blinded_a =
                  Blinding.apply ~x:gsk.Group_sig.x
                    (G1.encode params gsk.Group_sig.a);
              })
            issued
        in
        let payload = registration_payload t.config group_id gm_shares in
        record.last_payload <- payload;
        ( group_id,
          {
            reg_group_id = group_id;
            gm_shares;
            ttp_shares;
            no_signature =
              Ecdsa.sign t.config.Config.curve ~key:t.operator_key payload;
          } )
        :: acc)
      t.groups []
  in
  (* the new epoch starts with an empty URL; the CRL is unaffected *)
  t.revoked_tokens <- [];
  reissue_url t;
  batches
