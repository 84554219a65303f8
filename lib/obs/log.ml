(* Structured, leveled logging with a flight recorder.

   The flight recorder is the point: a fixed-capacity ring of the last N
   events that is always on, so when something goes wrong the recent
   past is already captured — no need to have had a sink attached. The
   record path is lock-free (one fetch-and-add to claim a slot, one
   atomic store to publish), so any domain can log without contending
   beyond the cache line.

   Readers snapshot the ring without stopping writers. A slot being
   overwritten during a snapshot yields either the old or the new entry
   — both are real events, so a torn *ring* (not a torn entry: entries
   are immutable once built) is acceptable for a diagnostics surface. *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type entry = {
  e_ts : int;  (* wall nanoseconds *)
  e_level : level;
  e_msg : string;
  e_attrs : (string * string) list;
  e_dom : int;  (* domain that emitted it *)
}

let capacity = 1024

type ring = { slots : entry option Atomic.t array; cursor : int Atomic.t }

let make_ring () =
  { slots = Array.init capacity (fun _ -> Atomic.make None); cursor = Atomic.make 0 }

let ring = Atomic.make (make_ring ())
let clear () = Atomic.set ring (make_ring ())

let events_total = Registry.counter_family ~label:"level" "log.events_total"

let entry_json e =
  let attrs =
    match e.e_attrs with
    | [] -> ""
    | attrs ->
      let fields =
        List.map (fun (k, v) -> Obs_json.str k ^ ":" ^ Obs_json.str v) attrs
      in
      ",\"attrs\":{" ^ String.concat "," fields ^ "}"
  in
  Printf.sprintf "{\"ts_ns\":%d,\"level\":%s,\"msg\":%s,\"dom\":%d%s}" e.e_ts
    (Obs_json.str (level_to_string e.e_level))
    (Obs_json.str e.e_msg) e.e_dom attrs

let event ?(attrs = []) lvl msg =
  let e =
    {
      e_ts = Registry.now_ns ();
      e_level = lvl;
      e_msg = msg;
      e_attrs = attrs;
      e_dom = (Domain.self () :> int);
    }
  in
  let r = Atomic.get ring in
  let i = Atomic.fetch_and_add r.cursor 1 in
  Atomic.set r.slots.(i mod capacity) (Some e);
  Registry.Counter.incr (events_total (level_to_string lvl))

let debug ?attrs msg = event ?attrs Debug msg
let info ?attrs msg = event ?attrs Info msg
let warn ?attrs msg = event ?attrs Warn msg
let error ?attrs msg = event ?attrs Error msg

let ts e = e.e_ts
let entry_level e = e.e_level
let msg e = e.e_msg
let attrs e = e.e_attrs

let recent ?min_level ?label ?n () =
  let r = Atomic.get ring in
  let cur = Atomic.get r.cursor in
  let want = match n with Some n -> Stdlib.min n capacity | None -> capacity in
  let floor = match min_level with None -> 0 | Some l -> severity l in
  let keep e =
    severity e.e_level >= floor
    && match label with
       | None -> true
       | Some (k, v) -> List.mem (k, v) e.e_attrs
  in
  let lo = Stdlib.max 0 (cur - want) in
  let out = ref [] in
  (* newest first while scanning backwards, then reverse to oldest-first *)
  for i = cur - 1 downto lo do
    match Atomic.get r.slots.(i mod capacity) with
    | Some e when keep e -> out := e :: !out
    | Some _ | None -> ()
  done;
  !out

let recent_jsonl ?min_level ?label ?n () =
  String.concat ""
    (List.map (fun e -> entry_json e ^ "\n") (recent ?min_level ?label ?n ()))
