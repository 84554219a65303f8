(* Longitudinal telemetry: fixed-capacity ring-buffer series fed by a
   clock-driven sampler over the registry.

   A series never grows past its capacity. When it fills, adjacent points
   are merged pairwise (timestamp of the first, mean of the values) and
   the per-point stride doubles, so an arbitrarily long run always fits in
   the same memory at progressively coarser resolution — the full time
   range is preserved, never truncated.

   The sampler is clock-agnostic: [now] is any monotone int-producing
   function, so the same machinery runs on wall time (live processes) or
   on a Peace_core.Clock via Peace_sim.Engine (simulated hours sampled in
   milliseconds of real time). *)

let wall_ms () = int_of_float (Unix.gettimeofday () *. 1000.0)

module Series = struct
  type t = {
    s_name : string;
    cap : int;
    ts : int array;
    vs : float array;
    mutable len : int;
    mutable stride : int;  (* raw pushes folded into one stored point *)
    mutable acc_n : int;   (* raw pushes accumulated toward the next point *)
    mutable acc_ts : int;  (* timestamp of the group's first push *)
    mutable acc_sum : float;
  }

  let create ?(capacity = 256) name =
    if capacity < 2 then invalid_arg "Series.create: capacity < 2";
    let cap = if capacity mod 2 = 0 then capacity else capacity + 1 in
    {
      s_name = name;
      cap;
      ts = Array.make cap 0;
      vs = Array.make cap 0.0;
      len = 0;
      stride = 1;
      acc_n = 0;
      acc_ts = 0;
      acc_sum = 0.0;
    }

  let name s = s.s_name
  let length s = s.len
  let capacity s = s.cap
  let stride s = s.stride

  (* halve the resolution: merge stored points pairwise and double the
     stride, so the next [cap/2] appends cover twice the time span *)
  let downsample s =
    let half = s.len / 2 in
    for i = 0 to half - 1 do
      s.ts.(i) <- s.ts.(2 * i);
      s.vs.(i) <- (s.vs.(2 * i) +. s.vs.((2 * i) + 1)) /. 2.0
    done;
    s.len <- half;
    s.stride <- s.stride * 2

  let append s ~ts v =
    if s.len = s.cap then downsample s;
    s.ts.(s.len) <- ts;
    s.vs.(s.len) <- v;
    s.len <- s.len + 1

  let push s ~ts v =
    if s.stride = 1 then append s ~ts v
    else begin
      if s.acc_n = 0 then s.acc_ts <- ts;
      s.acc_sum <- s.acc_sum +. v;
      s.acc_n <- s.acc_n + 1;
      (* [stride] can double mid-group (downsample on append); the group
         just keeps accumulating to the new, larger stride *)
      if s.acc_n >= s.stride then begin
        append s ~ts:s.acc_ts (s.acc_sum /. float_of_int s.acc_n);
        s.acc_n <- 0;
        s.acc_sum <- 0.0
      end
    end

  let points s = List.init s.len (fun i -> (s.ts.(i), s.vs.(i)))
  let last s = if s.len = 0 then None else Some (s.ts.(s.len - 1), s.vs.(s.len - 1))
end

type probe = { p_name : string; p_read : unit -> float }

type t = {
  mutable now : unit -> int;
  capacity : int;
  mutable probes : (probe * Series.t) list;  (* reverse track order *)
  mutable samples : int;
}

let create ?(capacity = 256) ?(now = wall_ms) () =
  { now; capacity; probes = []; samples = 0 }

let set_clock t now = t.now <- now

let track t name read =
  if List.exists (fun (p, _) -> p.p_name = name) t.probes then
    invalid_arg ("Timeseries.track: duplicate series " ^ name);
  let series = Series.create ~capacity:t.capacity name in
  t.probes <- ({ p_name = name; p_read = read }, series) :: t.probes;
  series

let track_gauge t name =
  let g = Registry.gauge name in
  track t name (fun () -> float_of_int (Registry.Gauge.value g))

let sample t =
  let ts = t.now () in
  List.iter (fun (p, s) -> Series.push s ~ts (p.p_read ())) t.probes;
  t.samples <- t.samples + 1

let sample_count t = t.samples
let series t = List.rev_map snd t.probes

(* --- exporter --- *)

let to_jsonl t write =
  List.iter
    (fun s ->
      write
        (Printf.sprintf
           "{\"kind\":\"series\",\"name\":%s,\"points\":%d,\"stride\":%d}"
           (Obs_json.str (Series.name s))
           (Series.length s) (Series.stride s));
      List.iter
        (fun (ts, v) ->
          write
            (Printf.sprintf "{\"kind\":\"sample\",\"series\":%s,\"ts\":%d,\"v\":%s}"
               (Obs_json.str (Series.name s))
               ts
               (Obs_json.num_to_string v)))
        (Series.points s))
    (series t)
