(* Span tracing with parent linkage.

   Each domain keeps its own span stack in domain-local storage, so spans
   opened by the authority's connection workers nest correctly within their
   own domain and never see another domain's parents. Span ids are
   process-global.

   Every wall-clock span records its duration into the registry histogram
   "<name>_ns"; when a collector is installed each span
   additionally emits a begin and an end event to it. The collector is the
   only output: the JSONL, Chrome and folded-stack renderings live in
   Expo. *)

let next_id = Atomic.make 1

(* --- the event stream ---

   At most one collector is installed at a time; it runs on the emitting
   domain and must synchronise internally. *)

type event =
  | Begin of {
      name : string;
      id : int;
      parent : int option;
      ts : int;
      trace : int option;
      remote_parent : int option;
      attrs : (string * string) list;
    }
  | End of { name : string; id : int; ts : int; dur : int }

let collector : (event -> unit) option Atomic.t = Atomic.make None
let set_collector c = Atomic.set collector c
let collector_active () = Atomic.get collector <> None

let collect ev =
  match Atomic.get collector with
  | None -> ()
  | Some f -> ( try f ev with _ -> ())

let stack_key = Domain.DLS.new_key (fun () -> ([] : int list))

let current_span () =
  match Domain.DLS.get stack_key with [] -> None | id :: _ -> Some id

(* --- span handles (cross-event tracing) ---

   A handle's lifetime is not tied to a call frame, so a span can survive
   an [Engine.schedule] hop: [start] returns a value that any later event
   can [finish], and parentage is explicit (an id, which can travel inside
   a simulated message), so a 3-message handshake stitches into one
   causal trace. [with_span] is a handle scoped to one call. *)

type handle = {
  h_name : string;
  h_id : int;
  h_t0 : int;
  h_trace : int option;
  h_wall : bool;
      (* timed on [Registry.now_ns]; a span started with [~ts] runs on the
         caller's clock, so its duration stays out of the ns histogram *)
  h_finished : bool Atomic.t;
      (* a compare-and-set guards [finish]: two domains racing to finish
         the same handle must produce exactly one end event *)
}

let start ?(attrs = []) ?parent ?trace ?remote_parent ?ts name =
  let id = Atomic.fetch_and_add next_id 1 in
  let t0 = match ts with Some t -> t | None -> Registry.now_ns () in
  collect (Begin { name; id; parent; ts = t0; trace; remote_parent; attrs });
  {
    h_name = name;
    h_id = id;
    h_t0 = t0;
    h_trace = trace;
    h_wall = Option.is_none ts;
    h_finished = Atomic.make false;
  }

let start_linked ?attrs ?ts ~parent name =
  start ?attrs ~parent:parent.h_id ?trace:parent.h_trace ?ts name

let start_remote ?attrs ?ts ~trace ~parent name =
  start ?attrs ~trace ~remote_parent:parent ?ts name

let id h = h.h_id
let trace_of h = h.h_trace

(* one registry lookup, with its mutex, per span name rather than per span *)
let duration_histogram = Registry.memo (fun name -> Registry.histogram (name ^ "_ns"))

let finish ?ts h =
  if Atomic.compare_and_set h.h_finished false true then begin
    let t1 = match ts with Some t -> t | None -> Registry.now_ns () in
    if h.h_wall then
      Registry.Histogram.observe (duration_histogram h.h_name) (t1 - h.h_t0);
    collect (End { name = h.h_name; id = h.h_id; ts = t1; dur = t1 - h.h_t0 })
  end

(* Run [f] with the handle's id as the innermost parent on this domain's
   stack, so plain [with_span] calls inside nest under the handle. *)
let with_parent h f =
  let stack = Domain.DLS.get stack_key in
  Domain.DLS.set stack_key (h.h_id :: stack);
  Fun.protect ~finally:(fun () -> Domain.DLS.set stack_key stack) f

let with_span ?attrs name f =
  let h = start ?attrs ?parent:(current_span ()) name in
  Fun.protect ~finally:(fun () -> finish h) (fun () -> with_parent h f)

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
