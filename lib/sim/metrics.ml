type series_state = {
  mutable rev_samples : float list;  (* newest first; reversed on read *)
  mutable n : int;
  mutable sum : float;
  (* cached ascending sort, invalidated by [sample]: repeated percentile
     reads (result records) must not re-sort every call *)
  mutable sorted : float array option;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  series : (string, series_state) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; series = Hashtbl.create 16 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.counters name r;
    r

let incr t name = incr (counter_ref t name)
let count t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort compare

let series_ref t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
    let s = { rev_samples = []; n = 0; sum = 0.0; sorted = None } in
    Hashtbl.replace t.series name s;
    s

let sample t name v =
  let s = series_ref t name in
  s.rev_samples <- v :: s.rev_samples;
  s.n <- s.n + 1;
  s.sum <- s.sum +. v;
  s.sorted <- None

let samples t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> List.rev s.rev_samples
  | None -> []

let mean t name =
  match Hashtbl.find_opt t.series name with
  | Some s when s.n > 0 -> Some (s.sum /. float_of_int s.n)
  | _ -> None

let sorted_samples s =
  match s.sorted with
  | Some a -> a
  | None ->
    let a = Array.of_list s.rev_samples in
    Array.sort compare a;
    s.sorted <- Some a;
    a

(* linear interpolation between closest ranks (numpy's default, R-7):
   rank = p/100·(n−1); a rank between two samples blends them *)
let percentile t name p =
  match Hashtbl.find_opt t.series name with
  | None -> None
  | Some s when s.n = 0 -> None
  | Some s ->
    let sorted = sorted_samples s in
    let n = Array.length sorted in
    let p = Stdlib.max 0.0 (Stdlib.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    if lo >= n - 1 then Some sorted.(n - 1)
    else begin
      let frac = rank -. float_of_int lo in
      Some (sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo))))
    end
