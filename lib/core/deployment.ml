open Peace_hash

type t = {
  config : Config.t;
  no : Network_operator.t;
  ttp : Ttp.t;
  gms : (int, Group_manager.t) Hashtbl.t;
  routers : (int, Mesh_router.t) Hashtbl.t;
  users : (string, User.t) Hashtbl.t;
  rng : int -> string;
}

let rng t n = t.rng n

let create ?(seed = "peace-deployment") config =
  let drbg = Drbg.create ~seed () in
  (* the operator, every router and every user draw from this one DRBG,
     and a live run (Testbed) draws from several domains at once; the lock
     keeps each draw whole without changing any single-domain stream *)
  let lock = Mutex.create () in
  let rng n = Mutex.protect lock (fun () -> Drbg.generate drbg n) in
  {
    config;
    no = Network_operator.create config ~rng;
    ttp = Ttp.create config;
    gms = Hashtbl.create 8;
    routers = Hashtbl.create 8;
    users = Hashtbl.create 32;
    rng;
  }

let operator t = t.no
let ttp t = t.ttp
let gpk t = Network_operator.gpk t.no

let add_group t ~group_id ~size =
  let gm = Group_manager.create t.config ~group_id ~rng:(rng t) in
  let registration = Network_operator.register_group t.no ~group_id ~size in
  Network_operator.set_gm_receipt_key t.no ~group_id
    (Group_manager.receipt_public_key gm);
  (match
     Group_manager.load_registration gm
       ~operator_public:(Network_operator.public_key t.no)
       registration
   with
  | Ok receipt ->
    if not (Network_operator.record_gm_receipt t.no ~group_id receipt) then
      failwith "Deployment.add_group: GM receipt rejected"
  | Error reason -> failwith ("Deployment.add_group: " ^ reason));
  Ttp.store t.ttp registration.Network_operator.ttp_shares;
  Hashtbl.replace t.gms group_id gm;
  gm

let group_manager t ~group_id = Hashtbl.find_opt t.gms group_id

let add_router t ~router_id =
  let router =
    Mesh_router.create t.config ~router_id ~gpk:(gpk t)
      ~operator_public:(Network_operator.public_key t.no)
      ~rng:(rng t)
  in
  let cert =
    Network_operator.register_router t.no ~router_id
      ~router_public:(Mesh_router.public_key router)
  in
  Mesh_router.install_cert router cert;
  Mesh_router.update_lists router
    (Network_operator.current_crl t.no)
    (Network_operator.current_url t.no);
  Hashtbl.replace t.routers router_id router;
  router

let router t ~router_id = Hashtbl.find_opt t.routers router_id

let add_user t identity =
  let user =
    User.create t.config ~identity ~gpk:(gpk t)
      ~operator_public:(Network_operator.public_key t.no)
      ~rng:(rng t)
  in
  let enroll_role (role : Identity.role) =
    match Hashtbl.find_opt t.gms role.Identity.group_id with
    | None ->
      Error (Printf.sprintf "unknown group %d" role.Identity.group_id)
    | Some gm -> begin
      match Group_manager.assign gm ~uid:identity.Identity.uid with
      | None ->
        Error (Printf.sprintf "group %d exhausted" role.Identity.group_id)
      | Some credential -> begin
        match
          Ttp.release t.ttp ~group_id:credential.Group_manager.mc_group_id
            ~index:credential.Group_manager.mc_index
        with
        | None -> Error "TTP has no share for this key"
        | Some blinded_a -> begin
          match User.enroll user ~credential ~blinded_a with
          | Error reason -> Error reason
          | Ok receipt ->
            if
              Ttp.record_user_receipt t.ttp
                ~group_id:credential.Group_manager.mc_group_id
                ~index:credential.Group_manager.mc_index
                ~user_public:(User.receipt_public_key user)
                receipt
            then Ok ()
            else Error "TTP rejected the user receipt"
        end
      end
    end
  in
  let rec enroll_all = function
    | [] -> Ok ()
    | role :: rest -> (
      match enroll_role role with Ok () -> enroll_all rest | Error _ as e -> e)
  in
  match enroll_all identity.Identity.roles with
  | Error reason -> Error reason
  | Ok () ->
    Hashtbl.replace t.users identity.Identity.uid user;
    Ok user

let user t ~uid = Hashtbl.find_opt t.users uid

let refresh_routers t =
  Network_operator.refresh_lists t.no;
  let crl = Network_operator.current_crl t.no in
  let url = Network_operator.current_url t.no in
  Hashtbl.iter (fun _ router -> Mesh_router.update_lists router crl url) t.routers

let authenticate t ~user ~router ?group_id () =
  ignore t;
  let beacon = Mesh_router.beacon router in
  match User.process_beacon user ?group_id beacon with
  | Error e -> Error e
  | Ok (request, pending) -> begin
    match Mesh_router.handle_access_request router request with
    | Error e -> Error e
    | Ok (confirm, router_session) -> begin
      match User.process_confirm user pending confirm with
      | Error e -> Error e
      | Ok user_session -> Ok (user_session, router_session)
    end
  end

let peer_authenticate t ~initiator ~responder ~router ?initiator_group () =
  ignore t;
  let beacon = Mesh_router.beacon router in
  (* both peers observe the beacon to learn g and the current URL; the
     initiator does not complete router authentication here *)
  match User.peer_hello initiator ?group_id:initiator_group ~g:beacon.Messages.g () with
  | Error e -> Error e
  | Ok (hello, pending_initiator) -> begin
    match User.process_peer_hello responder hello with
    | Error e -> Error e
    | Ok (response, pending_responder) -> begin
      match User.process_peer_response initiator pending_initiator response with
      | Error e -> Error e
      | Ok (confirm, initiator_session) -> begin
        match User.process_peer_confirm responder pending_responder confirm with
        | Error e -> Error e
        | Ok responder_session -> Ok (initiator_session, responder_session)
      end
    end
  end

let revoke_user t ~uid ~group_id =
  match Hashtbl.find_opt t.gms group_id with
  | None -> Error (Printf.sprintf "unknown group %d" group_id)
  | Some gm -> begin
    match Group_manager.index_of_uid gm ~uid with
    | None -> Error (Printf.sprintf "uid %s not in group %d" uid group_id)
    | Some index ->
      Network_operator.revoke_user_key t.no ~group_id ~index;
      refresh_routers t;
      Ok ()
  end

let revoke_router t ~router_id =
  Network_operator.revoke_router t.no ~router_id;
  refresh_routers t

let trace_session t ~ledger ~session_id =
  let ( let* ) = Option.bind in
  let* accepted = Mesh_router.accepted_sessions (gpk t) ledger in
  let* msg, gsig = accepted session_id in
  Law_authority.trace t.no
    ~group_manager_of:(fun group_id -> Hashtbl.find_opt t.gms group_id)
    ~msg gsig

let rotate_epoch t =
  let batches = Network_operator.rotate_epoch t.no in
  let new_gpk = Network_operator.gpk t.no in
  Hashtbl.iter (fun _ router -> Mesh_router.update_gpk router new_gpk) t.routers;
  Hashtbl.iter (fun _ user -> User.update_gpk user new_gpk) t.users;
  List.iter
    (fun (group_id, registration) ->
      match Hashtbl.find_opt t.gms group_id with
      | None -> ()
      | Some gm -> begin
        Ttp.store t.ttp registration.Network_operator.ttp_shares;
        match
          Group_manager.reissue gm
            ~operator_public:(Network_operator.public_key t.no)
            registration
        with
        | Error reason -> failwith ("Deployment.rotate_epoch: " ^ reason)
        | Ok deliveries ->
          List.iter
            (fun (uid, credential) ->
              match Hashtbl.find_opt t.users uid with
              | None -> () (* member not modeled in this deployment *)
              | Some user -> begin
                match
                  Ttp.release t.ttp
                    ~group_id:credential.Group_manager.mc_group_id
                    ~index:credential.Group_manager.mc_index
                with
                | None -> failwith "Deployment.rotate_epoch: missing TTP share"
                | Some blinded_a -> begin
                  match User.enroll user ~credential ~blinded_a with
                  | Ok _receipt -> ()
                  | Error reason ->
                    failwith ("Deployment.rotate_epoch: " ^ reason)
                end
              end)
            deliveries
      end)
    batches;
  refresh_routers t
