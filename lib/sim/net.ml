type address = int

(* departed-node traffic: frames addressed to (or sent by) nodes no longer
   registered — visible on /metrics so churny runs can account for it *)
let c_dropped_unknown = Peace_obs.Registry.counter "sim.net.dropped_unknown"

type node = {
  mutable pos : float * float;
  tx_range : float;
  handler : string -> unit;
}

type t = {
  engine : Engine.t;
  faults : Faults.link option;
  nodes : (address, node) Hashtbl.t;
  mutable bytes_sent : int;
  mutable frames_out_of_range : int;
  mutable frames_dropped_unknown : int;
}

let create engine ?faults () =
  {
    engine;
    faults;
    nodes = Hashtbl.create 64;
    bytes_sent = 0;
    frames_out_of_range = 0;
    frames_dropped_unknown = 0;
  }

let register t address ~pos ?(tx_range = infinity) handler =
  Hashtbl.replace t.nodes address { pos; tx_range; handler }

let unregister t address = Hashtbl.remove t.nodes address

let move t address pos =
  match Hashtbl.find_opt t.nodes address with
  | Some node -> node.pos <- pos
  | None -> ()

let position t address =
  Option.map (fun n -> n.pos) (Hashtbl.find_opt t.nodes address)

let dist_xy (x1, y1) (x2, y2) =
  let dx = x1 -. x2 and dy = y1 -. y2 in
  sqrt ((dx *. dx) +. (dy *. dy))

let distance t a b =
  match (position t a, position t b) with
  | Some pa, Some pb -> Some (dist_xy pa pb)
  | _ -> None

(* 2 ms base latency plus 0.01 ms/m of propagation and forwarding *)
let latency_ms d = 2.0 +. (0.01 *. d)

let drop_unknown t =
  t.frames_dropped_unknown <- t.frames_dropped_unknown + 1;
  Peace_obs.Registry.Counter.incr c_dropped_unknown

let deliver t ~dst ~delay payload =
  Engine.schedule t.engine ~delay (fun () ->
      (* the destination may have moved away or left by delivery time *)
      match Hashtbl.find_opt t.nodes dst with
      | Some node -> node.handler payload
      | None -> drop_unknown t)

let transmit t ~dst ~dist payload =
  t.bytes_sent <- t.bytes_sent + String.length payload;
  let delay = int_of_float (ceil (latency_ms dist)) in
  match t.faults with
  | None -> deliver t ~dst ~delay payload
  | Some link ->
    (* a lost frame yields no copy; the link counts it *)
    List.iteri
      (fun i (extra, copy) ->
        if i > 0 then begin
          (* a duplicate occupies air time like any other frame *)
          t.bytes_sent <- t.bytes_sent + String.length copy
        end;
        deliver t ~dst ~delay:(delay + extra) copy)
      (Faults.transmit link payload)

let send t ~src ~dst payload =
  match (Hashtbl.find_opt t.nodes src, distance t src dst) with
  | Some sender, Some d ->
    if d > sender.tx_range then
      t.frames_out_of_range <- t.frames_out_of_range + 1
    else transmit t ~dst ~dist:d payload
  | _ ->
    (* src or dst is no longer registered: the node crashed or left *)
    drop_unknown t

let nodes_in_range t ~of_ ~range =
  match position t of_ with
  | None -> []
  | Some origin ->
    Hashtbl.fold
      (fun address node acc ->
        if address <> of_ && dist_xy origin node.pos <= range then address :: acc
        else acc)
      t.nodes []
    |> List.sort compare

let broadcast t ~src ~range payload =
  let effective =
    match Hashtbl.find_opt t.nodes src with
    | Some sender -> Float.min range sender.tx_range
    | None -> range
  in
  List.iter
    (fun dst -> send t ~src ~dst payload)
    (nodes_in_range t ~of_:src ~range:effective)

let bytes_sent t = t.bytes_sent
let frames_out_of_range t = t.frames_out_of_range
let frames_dropped_unknown t = t.frames_dropped_unknown
