(* Span-tree profiler.

   Folds the structured Trace event stream into a call tree keyed by the
   span-name path (root;child;leaf). Each node accumulates a call count,
   total time, and the delta of a fixed set of registry counters between
   the span's begin and end — so a profile line can read "sign: 3
   pairings, 8 mul, 2.1 ms self".

   One mutex guards the open-span table and the node table, so spans may
   begin and end on any domain (the authority's connection workers, a
   handle finished on another domain than the one that started it). Op
   attribution reads the process-global counters, so it is exact on a
   single domain and approximate while several domains run concurrently
   (another domain's ops can land in whichever span is open here). *)

let default_ops =
  [
    "pairing.ops";
    "pairing.exp_g1";
    "pairing.exp_gt";
    "pairing.hash_to_g1";
    "ec.scalar_mul";
  ]

(* per-path accumulator; paths are stored leaf-first (name :: parent path)
   so extending a path on span begin is O(1) *)
type acc = {
  mutable a_count : int;
  mutable a_total_ns : int;
  a_ops : int array;
}

type open_span = { os_path : string list; os_ops0 : int array }

type t = {
  p_ops : string array;
  p_counters : Registry.Counter.t array;
  p_lock : Mutex.t;
  p_open : (int, open_span) Hashtbl.t;
  p_nodes : (string list, acc) Hashtbl.t;
  mutable p_dropped : int;
}

let create () =
  let p_ops = Array.of_list default_ops in
  {
    p_ops;
    p_counters = Array.map (fun n -> Registry.counter n) p_ops;
    p_lock = Mutex.create ();
    p_open = Hashtbl.create 16;
    p_nodes = Hashtbl.create 16;
    p_dropped = 0;
  }

let ops_snapshot t = Array.map Registry.Counter.value t.p_counters

let add_to_nodes t path dur ops0 =
  let a =
    match Hashtbl.find_opt t.p_nodes path with
    | Some a -> a
    | None ->
      let a =
        { a_count = 0; a_total_ns = 0; a_ops = Array.make (Array.length t.p_ops) 0 }
      in
      Hashtbl.replace t.p_nodes path a;
      a
  in
  a.a_count <- a.a_count + 1;
  a.a_total_ns <- a.a_total_ns + Stdlib.max 0 dur;
  let now = ops_snapshot t in
  Array.iteri
    (fun i v0 -> a.a_ops.(i) <- a.a_ops.(i) + Stdlib.max 0 (now.(i) - v0))
    ops0

(* a parent that is not open (begun before the collector was installed,
   or already closed) attaches the span at the root *)
let on_begin t name id parent =
  Mutex.protect t.p_lock (fun () ->
      let parent_path =
        match Option.bind parent (Hashtbl.find_opt t.p_open) with
        | Some os -> os.os_path
        | None -> []
      in
      Hashtbl.replace t.p_open id
        { os_path = name :: parent_path; os_ops0 = ops_snapshot t })

let on_end t id dur =
  Mutex.protect t.p_lock (fun () ->
      match Hashtbl.find_opt t.p_open id with
      | None -> t.p_dropped <- t.p_dropped + 1
      | Some os ->
        Hashtbl.remove t.p_open id;
        add_to_nodes t os.os_path dur os.os_ops0)

let collector t = function
  | Trace.Begin { name; id; parent; _ } -> on_begin t name id parent
  | Trace.End { id; dur; _ } -> on_end t id dur

let dropped t = Mutex.protect t.p_lock (fun () -> t.p_dropped)

(* --- report-time tree --- *)

type node = {
  name : string;
  path : string list;
  count : int;
  total_ns : int;
  self_ns : int;
  ops : (string * int) list;
  self_ops : (string * int) list;
  children : node list;
}

(* intermediate build node: totals recorded directly plus a child table *)
type tnode = {
  mutable b_count : int;
  mutable b_total : int;
  b_ops : int array;
  b_children : (string, tnode) Hashtbl.t;
}

let roots t =
  let nops = Array.length t.p_ops in
  let fresh () =
    {
      b_count = 0;
      b_total = 0;
      b_ops = Array.make nops 0;
      b_children = Hashtbl.create 4;
    }
  in
  let top = fresh () in
  let rec descend a node = function
    | [] ->
      node.b_count <- node.b_count + a.a_count;
      node.b_total <- node.b_total + a.a_total_ns;
      Array.iteri (fun i v -> node.b_ops.(i) <- node.b_ops.(i) + v) a.a_ops
    | name :: rest ->
      let child =
        match Hashtbl.find_opt node.b_children name with
        | Some ch -> ch
        | None ->
          let ch = fresh () in
          Hashtbl.replace node.b_children name ch;
          ch
      in
      descend a child rest
  in
  Mutex.protect t.p_lock (fun () ->
      Hashtbl.iter
        (fun rev_path a -> descend a top (List.rev rev_path))
        t.p_nodes);
  let rec freeze rev_prefix name b =
    let path = List.rev (name :: rev_prefix) in
    let children =
      Hashtbl.fold (fun n ch acc -> freeze (name :: rev_prefix) n ch :: acc)
        b.b_children []
      |> List.sort (fun a b -> compare a.name b.name)
    in
    let child_total = List.fold_left (fun s c -> s + c.total_ns) 0 children in
    let self_ops =
      Array.to_list
        (Array.mapi
           (fun i op ->
             let child_ops =
               List.fold_left
                 (fun s c -> s + List.assoc op c.ops)
                 0 children
             in
             (op, Stdlib.max 0 (b.b_ops.(i) - child_ops)))
           t.p_ops)
    in
    {
      name;
      path;
      count = b.b_count;
      total_ns = b.b_total;
      self_ns = Stdlib.max 0 (b.b_total - child_total);
      ops = Array.to_list (Array.mapi (fun i op -> (op, b.b_ops.(i))) t.p_ops);
      self_ops;
      children;
    }
  in
  Hashtbl.fold (fun n ch acc -> freeze [] n ch :: acc) top.b_children []
  |> List.sort (fun a b -> compare a.name b.name)

let ms ns = float_of_int ns /. 1e6

let report fmt t =
  let rs = roots t in
  if rs = [] then Format.fprintf fmt "(no spans profiled)@."
  else begin
    Format.fprintf fmt "  %-38s %7s %11s %11s  %s@." "span tree" "count"
      "total ms" "self ms" "ops (span total)";
    let rec pr depth n =
      let label = String.make (2 * depth) ' ' ^ n.name in
      let ops =
        List.filter (fun (_, v) -> v > 0) n.ops
        |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
        |> String.concat " "
      in
      Format.fprintf fmt "  %-38s %7d %11.3f %11.3f  %s@." label n.count
        (ms n.total_ns) (ms n.self_ns) ops;
      List.iter (pr (depth + 1)) n.children
    in
    List.iter (pr 0) rs;
    let d = dropped t in
    if d > 0 then
      Format.fprintf fmt "  (%d end event(s) without a matching begin)@." d
  end
