(* Span tracing with parent linkage.

   Each domain keeps its own span stack in domain-local storage, so spans
   opened by the authority's connection workers nest correctly within their
   own domain and never see another domain's parents. Span ids are
   process-global.

   Every span records its duration into the registry histogram
   "span.<name>.dur_ns"; when a sink is installed each span additionally
   emits a begin and an end event as one JSON object per line (JSONL). *)

let next_id = Atomic.make 1

(* --- structured event stream ---

   Besides the JSONL sink, spans can feed a structured collector (the
   profiler, the trace recorders) without going through text. At most one
   collector is installed at a time; it runs on the emitting domain and
   must synchronise internally. *)

type event =
  | Begin of {
      name : string;
      id : int;
      parent : int option;
      ts : int;
      trace : int option;
      remote_parent : int option;
    }
  | End of { name : string; id : int; ts : int; dur : int }

let collector : (event -> unit) option Atomic.t = Atomic.make None
let set_collector c = Atomic.set collector c
let collector_active () = Atomic.get collector <> None

let collect ev =
  match Atomic.get collector with
  | None -> ()
  | Some f -> ( try f ev with _ -> ())

let sink_lock = Mutex.create ()
let sink : (string -> unit) option ref = ref None

let set_sink s =
  Mutex.lock sink_lock;
  sink := s;
  Mutex.unlock sink_lock

let sink_active () = !sink <> None

(* [make_line] is a thunk so no string is built when tracing is off; the
   lock serialises writers from concurrent domains *)
let emit make_line =
  if sink_active () then begin
    Mutex.lock sink_lock;
    (match !sink with
    | None -> ()
    | Some write -> ( try write (make_line ()) with _ -> ()));
    Mutex.unlock sink_lock
  end

let stack_key = Domain.DLS.new_key (fun () -> ([] : int list))

let current_span () =
  match Domain.DLS.get stack_key with [] -> None | id :: _ -> Some id

let attrs_json = function
  | [] -> ""
  | attrs ->
    let fields =
      List.map (fun (k, v) -> Obs_json.str k ^ ":" ^ Obs_json.str v) attrs
    in
    ",\"attrs\":{" ^ String.concat "," fields ^ "}"

let opt_field key = function
  | None -> ""
  | Some v -> Printf.sprintf ",%s:%d" (Obs_json.str key) v

let begin_line ~name ~id ~parent ?trace ?remote_parent ~attrs ~ts () =
  Printf.sprintf
    "{\"ev\":\"B\",\"name\":%s,\"id\":%d,\"parent\":%s,\"ts_ns\":%d%s%s%s}"
    (Obs_json.str name) id
    (match parent with None -> "null" | Some p -> string_of_int p)
    ts
    (opt_field "trace" trace)
    (opt_field "remote_parent" remote_parent)
    (attrs_json attrs)

let end_line ~name ~id ~ts ~dur =
  Printf.sprintf "{\"ev\":\"E\",\"name\":%s,\"id\":%d,\"ts_ns\":%d,\"dur_ns\":%d}"
    (Obs_json.str name) id ts dur

let with_span ?(attrs = []) name f =
  if
    (not (Registry.is_enabled ()))
    && (not (sink_active ()))
    && not (collector_active ())
  then f ()
  else begin
    let h = Registry.histogram ("span." ^ name ^ ".dur_ns") in
    let id = Atomic.fetch_and_add next_id 1 in
    let stack = Domain.DLS.get stack_key in
    let parent = match stack with [] -> None | p :: _ -> Some p in
    Domain.DLS.set stack_key (id :: stack);
    let t0 = Registry.now_ns () in
    collect (Begin { name; id; parent; ts = t0; trace = None; remote_parent = None });
    emit (fun () -> begin_line ~name ~id ~parent ~attrs ~ts:t0 ());
    Fun.protect
      ~finally:(fun () ->
        let t1 = Registry.now_ns () in
        Registry.Histogram.observe h (t1 - t0);
        collect (End { name; id; ts = t1; dur = t1 - t0 });
        emit (fun () -> end_line ~name ~id ~ts:t1 ~dur:(t1 - t0));
        Domain.DLS.set stack_key stack)
      f
  end

(* --- explicit span handles (cross-event tracing) ---

   [with_span] ties span lifetime to a call frame, so a span cannot
   survive an [Engine.schedule] hop: the handler runs later, on an empty
   stack, and its spans come out unrelated. Handles decouple the two —
   [start] returns a value that any later event can [finish], and
   parentage is explicit (an id, which can travel inside a simulated
   message), so a 3-message handshake stitches into one causal trace. *)

type handle = {
  h_name : string;
  h_id : int;
  h_t0 : int;
  h_trace : int option;
  h_hist : Registry.Histogram.t;
  h_finished : bool Atomic.t;
      (* a compare-and-set guards [finish]: two domains racing to finish
         the same handle must produce exactly one end event (PR-3 claimed
         idempotency but used a plain mutable bool, so both racers could
         read [false] and double-emit) *)
}

let start ?(attrs = []) ?parent ?trace ?remote_parent ?ts name =
  let id = Atomic.fetch_and_add next_id 1 in
  let t0 = match ts with Some t -> t | None -> Registry.now_ns () in
  collect (Begin { name; id; parent; ts = t0; trace; remote_parent });
  emit (fun () -> begin_line ~name ~id ~parent ?trace ?remote_parent ~attrs ~ts:t0 ());
  {
    h_name = name;
    h_id = id;
    h_t0 = t0;
    h_trace = trace;
    h_hist = Registry.histogram ("span." ^ name ^ ".dur_ns");
    h_finished = Atomic.make false;
  }

let start_linked ?attrs ?ts ~parent name =
  start ?attrs ~parent:parent.h_id ?trace:parent.h_trace ?ts name

let start_remote ?attrs ?ts ~trace ~parent name =
  start ?attrs ~trace ~remote_parent:parent ?ts name

let id h = h.h_id
let trace_of h = h.h_trace

(* Run [f] with the handle's id as the innermost parent on this domain's
   stack, so plain [with_span] calls inside nest under the handle. *)
let with_parent h f =
  let stack = Domain.DLS.get stack_key in
  Domain.DLS.set stack_key (h.h_id :: stack);
  Fun.protect ~finally:(fun () -> Domain.DLS.set stack_key stack) f

(* Trace ids correlate spans across processes, so a plain counter is not
   enough: the loadgen and the authority would both start at 1. Mix the
   pid and the wall clock into a per-process base and count from there —
   best-effort uniqueness, no coordination. *)
let trace_base =
  lazy
    (let pid = try Unix.getpid () with _ -> 0 in
     let t = Registry.now_ns () in
     (t lxor (pid * 0x2545f4914f6cdd1d)) land 0x3fffffffffffffff)

let trace_counter = Atomic.make 0

let fresh_trace_id () =
  let n = Atomic.fetch_and_add trace_counter 1 in
  (Lazy.force trace_base + (n * 0x100000001b3)) land 0x3fffffffffffffff

let finish ?ts h =
  if Atomic.compare_and_set h.h_finished false true then begin
    let t1 = match ts with Some t -> t | None -> Registry.now_ns () in
    Registry.Histogram.observe h.h_hist (t1 - h.h_t0);
    collect (End { name = h.h_name; id = h.h_id; ts = t1; dur = t1 - h.h_t0 });
    emit (fun () -> end_line ~name:h.h_name ~id:h.h_id ~ts:t1 ~dur:(t1 - h.h_t0))
  end

let with_file path f =
  let oc = open_out path in
  set_sink
    (Some
       (fun line ->
         output_string oc line;
         output_char oc '\n';
         flush oc));
  Fun.protect
    ~finally:(fun () ->
      set_sink None;
      close_out oc)
    f
