(* Metric registries: a process-wide one behind every call that names
   none, and any number of private ones (a simulation run owns one).

   Every record path (counter bump, gauge move, histogram observation) is a
   handful of [Atomic] operations and never takes a lock, so the
   authority's connection workers can hammer the same metric concurrently
   without contention beyond the cache line itself. A registry's mutex
   guards only metric creation and enumeration, which happen at
   module-init time or in exporters. *)

(* wall-clock nanoseconds as an int; 63-bit ints hold epoch-nanoseconds
   until the year 2262, and all consumers only ever look at differences *)
let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let make name = { name; v = Atomic.make 0 }
  let name c = c.name
  let incr c = ignore (Atomic.fetch_and_add c.v 1)
  let add c n = ignore (Atomic.fetch_and_add c.v n)
  let value c = Atomic.get c.v
  let reset c = Atomic.set c.v 0
end

module Gauge = struct
  type t = { name : string; v : int Atomic.t }

  let make name = { name; v = Atomic.make 0 }
  let name g = g.name
  let set g n = Atomic.set g.v n
  let add g n = ignore (Atomic.fetch_and_add g.v n)
  let incr g = add g 1
  let decr g = add g (-1)
  let value g = Atomic.get g.v
  let reset g = Atomic.set g.v 0
end

module Histogram = struct
  (* log-bucketed: bucket [i] holds the observations whose value has
     bit-length [i], i.e. v in [2^(i-1), 2^i); bucket 0 holds v <= 0. *)
  let nbuckets = 63

  type t = {
    name : string;
    buckets : int Atomic.t array;
    count : int Atomic.t;
    sum : int Atomic.t;
  }

  let make name =
    {
      name;
      buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum = Atomic.make 0;
    }

  let name h = h.name

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and x = ref v in
      while !x > 0 do
        incr b;
        x := !x lsr 1
      done;
      Stdlib.min !b (nbuckets - 1)
    end

  let lower_bound i = if i = 0 then 0 else 1 lsl (i - 1)
  let upper_bound i = if i >= 62 then max_int else (1 lsl i) - 1

  let observe h v =
    ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add h.count 1);
    ignore (Atomic.fetch_and_add h.sum v)

  let time h f =
    let t0 = now_ns () in
    Fun.protect ~finally:(fun () -> observe h (now_ns () - t0)) f

  let count h = Atomic.get h.count
  let sum h = Atomic.get h.sum

  let mean h =
    let n = count h in
    if n = 0 then None else Some (float_of_int (sum h) /. float_of_int n)

  let quantile h p =
    let n = count h in
    if n = 0 then None
    else begin
      let p = Stdlib.max 0.0 (Stdlib.min 100.0 p) in
      let rank = p /. 100.0 *. float_of_int (n - 1) in
      (* walk the cumulative distribution; interpolate linearly inside the
         bucket the rank falls into *)
      let rec find i cum =
        if i >= nbuckets then Some (float_of_int (upper_bound (nbuckets - 1)))
        else begin
          let c = Atomic.get h.buckets.(i) in
          if c > 0 && rank < float_of_int (cum + c) then begin
            let lo = float_of_int (lower_bound i)
            and hi = float_of_int (upper_bound i) in
            let frac = (rank -. float_of_int cum) /. float_of_int c in
            Some (lo +. (frac *. (hi -. lo)))
          end
          else find (i + 1) (cum + c)
        end
      in
      find 0 0
    end

  let bucket_counts h = Array.map Atomic.get h.buckets

  let reset h =
    Array.iter (fun b -> Atomic.set b 0) h.buckets;
    Atomic.set h.count 0;
    Atomic.set h.sum 0
end

(* linear interpolation between closest ranks (numpy's default, R-7):
   rank = p/100·(n−1); a rank between two samples blends them *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let p = Stdlib.max 0.0 (Stdlib.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    if lo >= n - 1 then sorted.(n - 1)
    else
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo)))
  end

(* --- labels ---

   A labeled metric is an ordinary metric whose registry key is the
   Prometheus-style series name [name{k="v",...}]: labels sort by key and
   values use exposition escaping, so the same label set always produces
   the same key and the exposition layer can emit stored names verbatim.
   Base metric names must not contain '{'. *)

let escape_label_value v =
  let buf = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let encode_labels = function
  | [] -> ""
  | labels ->
    let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> k ^ "=\"" ^ escape_label_value v ^ "\"")
           labels)
    ^ "}"

let split_name full =
  match String.index_opt full '{' with
  | None -> (full, "")
  | Some i -> (String.sub full 0 i, String.sub full i (String.length full - i))

(* --- the registry proper --- *)

type t = {
  lock : Mutex.t;
  counters_tbl : (string, Counter.t) Hashtbl.t;
  gauges_tbl : (string, Gauge.t) Hashtbl.t;
  histograms_tbl : (string, Histogram.t) Hashtbl.t;
}

let create () =
  {
    lock = Mutex.create ();
    counters_tbl = Hashtbl.create 32;
    gauges_tbl = Hashtbl.create 16;
    histograms_tbl = Hashtbl.create 16;
  }

let global = create ()

let with_lock r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

let get_or_create r tbl make name =
  with_lock r (fun () ->
      match Hashtbl.find_opt tbl name with
      | Some m -> m
      | None ->
        let m = make name in
        Hashtbl.replace tbl name m;
        m)

let counter ?registry:(r = global) ?(labels = []) name =
  get_or_create r r.counters_tbl Counter.make (name ^ encode_labels labels)

let gauge ?registry:(r = global) ?(labels = []) name =
  get_or_create r r.gauges_tbl Gauge.make (name ^ encode_labels labels)

let histogram ?registry:(r = global) ?(labels = []) name =
  get_or_create r r.histograms_tbl Histogram.make (name ^ encode_labels labels)

(* A lookup memoized by key: [counter] and [histogram] pay a string
   concatenation plus the registry mutex on every call, which is wasteful
   on hot paths that reach the same few series forever. The cache is an
   immutable assoc list in an [Atomic]; hits are one atomic read and a
   pointer walk over a handful of entries, misses fall back to [make] and
   publish via CAS (losing a race just re-reads). [make] resolves through
   the registry, so racing misses get the same metric. *)
let memo make =
  let cache = Atomic.make [] in
  fun key ->
    match List.assoc_opt key (Atomic.get cache) with
    | Some m -> m
    | None ->
      let m = make key in
      let rec publish () =
        let cur = Atomic.get cache in
        if List.mem_assoc key cur then ()
        else if not (Atomic.compare_and_set cache cur ((key, m) :: cur))
        then publish ()
      in
      publish ();
      m

let counter_family ~label name =
  memo (fun value -> counter ~labels:[ (label, value) ] name)

let dump r tbl value =
  with_lock r (fun () ->
      Hashtbl.fold (fun name m acc -> (name, value m) :: acc) tbl [])
  |> List.sort compare

let counters ?registry:(r = global) () = dump r r.counters_tbl Counter.value
let gauges ?registry:(r = global) () = dump r r.gauges_tbl Gauge.value
let histograms ?registry:(r = global) () = dump r r.histograms_tbl Fun.id

(* Resolve a metric name to one float for rule evaluation (Alert):
   an exact gauge or counter wins; otherwise all labelled series whose
   base name matches are summed (counters, then gauges); otherwise the
   count-weighted mean of matching histograms. Creates nothing. *)
let lookup ?registry:(r = global) name =
  let find tbl = with_lock r (fun () -> Hashtbl.find_opt tbl name) in
  match find r.gauges_tbl with
  | Some g -> Some (float_of_int (Gauge.value g))
  | None -> (
    match find r.counters_tbl with
    | Some c -> Some (float_of_int (Counter.value c))
    | None -> (
      let matching dump_list =
        List.filter (fun (n, _) -> fst (split_name n) = name) dump_list
      in
      let sum_values l =
        List.fold_left (fun acc (_, v) -> acc + v) 0 l
      in
      match matching (counters ~registry:r ()) with
      | _ :: _ as hits -> Some (float_of_int (sum_values hits))
      | [] -> (
        match matching (gauges ~registry:r ()) with
        | _ :: _ as hits -> Some (float_of_int (sum_values hits))
        | [] ->
          let hs = matching (histograms ~registry:r ()) in
          let count =
            List.fold_left (fun a (_, h) -> a + Histogram.count h) 0 hs
          in
          if hs = [] || count = 0 then None
          else begin
            let sum =
              List.fold_left (fun a (_, h) -> a + Histogram.sum h) 0 hs
            in
            Some (float_of_int sum /. float_of_int count)
          end)))
