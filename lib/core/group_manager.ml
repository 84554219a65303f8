open Peace_bigint
open Peace_ec

type member_credential = {
  mc_group_id : int;
  mc_index : int;
  mc_grp_secret : Bigint.t;
  mc_member_secret : Bigint.t;
}

type t = {
  config : Config.t;
  group_id : int;
  receipt_key : Ecdsa.keypair;
  mutable unassigned : Network_operator.gm_share list;
  assignments : (int, string) Hashtbl.t; (* index -> uid *)
  reverse : (string, int) Hashtbl.t; (* uid -> index *)
}

let create config ~group_id ~rng =
  {
    config;
    group_id;
    receipt_key = Ecdsa.generate config.Config.curve rng;
    unassigned = [];
    assignments = Hashtbl.create 64;
    reverse = Hashtbl.create 64;
  }

let group_id t = t.group_id
let receipt_public_key t = t.receipt_key.Ecdsa.q

let load_registration t ~operator_public registration =
  if registration.Network_operator.reg_group_id <> t.group_id then
    Error "registration is for another group"
  else begin
    let payload =
      Network_operator.registration_payload t.config t.group_id
        registration.Network_operator.gm_shares
    in
    if
      not
        (Ecdsa.verify t.config.Config.curve ~public:operator_public payload
           registration.Network_operator.no_signature)
    then Error "operator signature invalid"
    else begin
      t.unassigned <- t.unassigned @ registration.Network_operator.gm_shares;
      (* counter-sign the same payload as the operator: the receipt *)
      Ok (Ecdsa.sign t.config.Config.curve ~key:t.receipt_key payload)
    end
  end

let assign t ~uid =
  match t.unassigned with
  | [] -> None
  | share :: rest ->
    t.unassigned <- rest;
    Hashtbl.replace t.assignments share.Network_operator.index uid;
    Hashtbl.replace t.reverse uid share.Network_operator.index;
    Some
      {
        mc_group_id = t.group_id;
        mc_index = share.Network_operator.index;
        mc_grp_secret = share.Network_operator.grp_secret;
        mc_member_secret = share.Network_operator.member_secret;
      }

let available_keys t = List.length t.unassigned
let lookup_uid t ~index = Hashtbl.find_opt t.assignments index
let index_of_uid t ~uid = Hashtbl.find_opt t.reverse uid

let reissue t ~operator_public registration =
  if registration.Network_operator.reg_group_id <> t.group_id then
    Error "registration is for another group"
  else begin
    let payload =
      Network_operator.registration_payload t.config t.group_id
        registration.Network_operator.gm_shares
    in
    if
      not
        (Ecdsa.verify t.config.Config.curve ~public:operator_public payload
           registration.Network_operator.no_signature)
    then Error "operator signature invalid"
    else begin
      (* previous-epoch unassigned shares are now worthless *)
      t.unassigned <- [];
      let deliveries =
        List.filter_map
          (fun share ->
            match Hashtbl.find_opt t.assignments share.Network_operator.index with
            | Some uid ->
              Some
                ( uid,
                  {
                    mc_group_id = t.group_id;
                    mc_index = share.Network_operator.index;
                    mc_grp_secret = share.Network_operator.grp_secret;
                    mc_member_secret = share.Network_operator.member_secret;
                  } )
            | None ->
              t.unassigned <- t.unassigned @ [ share ];
              None)
          registration.Network_operator.gm_shares
      in
      Ok deliveries
    end
  end
