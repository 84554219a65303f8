type usage = {
  u_session_id : string;
  u_bytes_up : int;
  u_bytes_down : int;
  u_duration_ms : int;
}

type live = { mutable bytes_up : int; mutable bytes_down : int }

type meter = {
  live : (string, live) Hashtbl.t;
  mutable closed : usage list;
}

let create_meter () = { live = Hashtbl.create 16; closed = [] }

let live_of meter session_id =
  match Hashtbl.find_opt meter.live session_id with
  | Some l -> l
  | None ->
    let l = { bytes_up = 0; bytes_down = 0 } in
    Hashtbl.replace meter.live session_id l;
    l

let open_session meter ~session_id = ignore (live_of meter session_id)

let record_up meter ~session_id ~bytes =
  let l = live_of meter session_id in
  l.bytes_up <- l.bytes_up + bytes

let record_down meter ~session_id ~bytes =
  let l = live_of meter session_id in
  l.bytes_down <- l.bytes_down + bytes

let close_session meter ~session_id ~duration_ms =
  (* only live sessions close: closing an unknown (or already-closed)
     session is a no-op, so a duplicate or forged close frame can neither
     invent a billable zero-byte usage record nor double-bill one *)
  match Hashtbl.find_opt meter.live session_id with
  | None -> false
  | Some l ->
    Hashtbl.remove meter.live session_id;
    meter.closed <-
      {
        u_session_id = session_id;
        u_bytes_up = l.bytes_up;
        u_bytes_down = l.bytes_down;
        u_duration_ms = duration_ms;
      }
      :: meter.closed;
    Peace_obs.Audit.emit ~kind:"session_close"
      [
        ("session", session_id);
        ("bytes_up", string_of_int l.bytes_up);
        ("bytes_down", string_of_int l.bytes_down);
        ("duration_ms", string_of_int duration_ms);
      ];
    true

let usages meter = meter.closed
let open_sessions meter = Hashtbl.length meter.live

type invoice_line = {
  il_group_id : int;
  il_sessions : int;
  il_bytes : int;
  il_duration_ms : int;
}

let invoice no ~ledger meter =
  let accepted =
    Option.value ~default:(fun _ -> None)
      (Mesh_router.accepted_sessions (Network_operator.gpk no) ledger)
  in
  let by_group = Hashtbl.create 8 in
  List.iter
    (fun u ->
      match
        Option.bind (accepted u.u_session_id) (fun (msg, gsig) ->
            Network_operator.audit no ~msg gsig)
      with
      | None -> ()
      | Some { Network_operator.found_group_id = g; _ } ->
        let l =
          Option.value (Hashtbl.find_opt by_group g)
            ~default:{ il_group_id = g; il_sessions = 0; il_bytes = 0; il_duration_ms = 0 }
        in
        Hashtbl.replace by_group g
          {
            l with
            il_sessions = l.il_sessions + 1;
            il_bytes = l.il_bytes + u.u_bytes_up + u.u_bytes_down;
            il_duration_ms = l.il_duration_ms + u.u_duration_ms;
          })
    meter.closed;
  List.sort compare (Hashtbl.fold (fun _ l acc -> l :: acc) by_group [])

let pp_invoice fmt lines =
  List.iter
    (fun line ->
      Format.fprintf fmt "group %-6d %4d sessions %10d bytes %8d ms@."
        line.il_group_id line.il_sessions line.il_bytes line.il_duration_ms)
    lines
