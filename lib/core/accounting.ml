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
        ("session", Session.short_id session_id);
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

let invoice no ~router meter =
  let log = Mesh_router.access_log router in
  let by_group = Hashtbl.create 8 in
  List.iter
    (fun usage ->
      let ( let* ) = Option.bind in
      let finding =
        let* entry =
          List.find_opt
            (fun e -> e.Mesh_router.le_session_id = usage.u_session_id)
            log
        in
        let* gsig = Mesh_router.logged_signature router entry in
        Network_operator.audit no ~msg:entry.Mesh_router.le_transcript gsig
      in
      match finding with
      | None -> ()
      | Some finding ->
        let group_id = finding.Network_operator.found_group_id in
        let sessions, bytes, duration =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_group group_id)
        in
        Hashtbl.replace by_group group_id
          ( sessions + 1,
            bytes + usage.u_bytes_up + usage.u_bytes_down,
            duration + usage.u_duration_ms ))
    meter.closed;
  Hashtbl.fold
    (fun il_group_id (il_sessions, il_bytes, il_duration_ms) acc ->
      { il_group_id; il_sessions; il_bytes; il_duration_ms } :: acc)
    by_group []
  |> List.sort (fun a b -> compare a.il_group_id b.il_group_id)

let pp_invoice fmt lines =
  List.iter
    (fun line ->
      Format.fprintf fmt "group %-6d %4d sessions %10d bytes %8d ms@."
        line.il_group_id line.il_sessions line.il_bytes line.il_duration_ms)
    lines
