(* Declarative alerting over the registry and the audit event stream.

   A rule is a condition plus a for-duration; the evaluator advances one
   state machine per rule on every eval tick:

       Inactive/Resolved --cond--> Pending --held for r_for_ms--> Firing
       Pending --!cond--> Inactive          Firing --!cond--> Resolved

   Metric conditions read whatever lookup the caller passes (default:
   the live registry); event conditions (reject storms, revoked-
   credential reuse) consume audit events pushed in via [observe] —
   normally the process-wide Audit tap. All times are integer
   milliseconds from an injectable clock, so the simulator evaluates
   rules on deterministic sim time.

   Side effects of a transition (firing gauge, flight-recorder line,
   optional audit record) are collected under the evaluator lock but
   performed after it is released: an audit emit re-enters the tap,
   which would otherwise deadlock on our own mutex. *)

type cond =
  | Over of { metric : string; limit : float }
  | Under of { metric : string; limit : float }
  | Rate of { metric : string; per_s : float; window_ms : int }
  | Burn of {
      num : string;
      den : string;
      short_ms : int;
      long_ms : int;
      budget_pct : float;
    }
  | Storm of { code : int; count : int; window_ms : int }
  | Reuse of { count : int; window_ms : int }
  | Anomaly of { metric : string; z : float }

type rule = { r_name : string; r_cond : cond; r_for_ms : int }

(* ------------------------------------------------------------------ *)
(* Spec grammar                                                        *)
(* ------------------------------------------------------------------ *)

let grammar =
  "RULES are newline- or ';'-separated, '#' comments; each is [NAME=]TOKEN \
   with TOKEN: over:METRIC:LIMIT[:FOR] | under:METRIC:LIMIT[:FOR] | \
   rate:METRIC:PER_S:WINDOW[:FOR] | burn:NUM/DEN:SHORT,LONG:PCT%[:FOR] | \
   storm:CODE:N:WINDOW[:FOR] | reuse:N:WINDOW[:FOR] | anomaly:METRIC:Z[:FOR]; \
   durations are <n>ms|s|m|h"

let ( let* ) = Result.bind

let duration_ms ~tok s =
  let num body =
    match int_of_string_opt body with
    | Some n when n > 0 -> Ok n
    | _ -> Error (Printf.sprintf "%s: %S is not a positive duration" tok s)
  in
  let l = String.length s in
  let ends suffix =
    let sl = String.length suffix in
    l > sl && String.sub s (l - sl) sl = suffix
  in
  let body sl = String.sub s 0 (l - sl) in
  if ends "ms" then num (body 2)
  else if ends "s" then Result.map (fun n -> n * 1000) (num (body 1))
  else if ends "m" then Result.map (fun n -> n * 60_000) (num (body 1))
  else if ends "h" then Result.map (fun n -> n * 3_600_000) (num (body 1))
  else num s

let duration_to_string ms =
  if ms mod 3_600_000 = 0 then Printf.sprintf "%dh" (ms / 3_600_000)
  else if ms mod 60_000 = 0 then Printf.sprintf "%dm" (ms / 60_000)
  else if ms mod 1000 = 0 then Printf.sprintf "%ds" (ms / 1000)
  else Printf.sprintf "%dms" ms

let number ~tok s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s: %S is not a number" tok s)

let positive_int ~tok s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "%s: %S is not a positive integer" tok s)

let pct ~tok s =
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '%' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  let* f = number ~tok s in
  if f > 0.0 then Ok f
  else Error (Printf.sprintf "%s: budget must be a positive percentage" tok)

let for_of ~tok rest =
  match rest with
  | [] -> Ok 0
  | [ f ] -> duration_ms ~tok f
  | _ -> Error (Printf.sprintf "%s: trailing fields after FOR" tok)

let cond_of_token token =
  match String.split_on_char ':' token with
  | "over" :: metric :: limit :: rest ->
    let* limit = number ~tok:"over" limit in
    let* for_ms = for_of ~tok:"over" rest in
    Ok (Over { metric; limit }, for_ms)
  | "under" :: metric :: limit :: rest ->
    let* limit = number ~tok:"under" limit in
    let* for_ms = for_of ~tok:"under" rest in
    Ok (Under { metric; limit }, for_ms)
  | "rate" :: metric :: per_s :: window :: rest ->
    let* per_s = number ~tok:"rate" per_s in
    let* window_ms = duration_ms ~tok:"rate" window in
    let* for_ms = for_of ~tok:"rate" rest in
    Ok (Rate { metric; per_s; window_ms }, for_ms)
  | "burn" :: ratio :: windows :: budget :: rest -> (
    let* num, den =
      match String.index_opt ratio '/' with
      | Some i when i > 0 && i < String.length ratio - 1 ->
        Ok
          ( String.sub ratio 0 i,
            String.sub ratio (i + 1) (String.length ratio - i - 1) )
      | _ -> Error "burn: expected NUM/DEN"
    in
    match String.split_on_char ',' windows with
    | [ short; long ] ->
      let* short_ms = duration_ms ~tok:"burn" short in
      let* long_ms = duration_ms ~tok:"burn" long in
      if short_ms >= long_ms then
        Error "burn: the short window must be shorter than the long one"
      else
        let* budget_pct = pct ~tok:"burn" budget in
        let* for_ms = for_of ~tok:"burn" rest in
        Ok (Burn { num; den; short_ms; long_ms; budget_pct }, for_ms)
    | _ -> Error "burn: expected SHORT,LONG windows")
  | "storm" :: code :: count :: window :: rest ->
    let* code =
      match int_of_string_opt code with
      | Some c when c >= 0 -> Ok c
      | _ -> Error (Printf.sprintf "storm: %S is not a wire code" code)
    in
    let* count = positive_int ~tok:"storm" count in
    let* window_ms = duration_ms ~tok:"storm" window in
    let* for_ms = for_of ~tok:"storm" rest in
    Ok (Storm { code; count; window_ms }, for_ms)
  | "reuse" :: count :: window :: rest ->
    let* count = positive_int ~tok:"reuse" count in
    let* window_ms = duration_ms ~tok:"reuse" window in
    let* for_ms = for_of ~tok:"reuse" rest in
    Ok (Reuse { count; window_ms }, for_ms)
  | "anomaly" :: metric :: z :: rest ->
    let* z = number ~tok:"anomaly" z in
    if z <= 0.0 then Error "anomaly: Z must be positive"
    else
      let* for_ms = for_of ~tok:"anomaly" rest in
      Ok (Anomaly { metric; z }, for_ms)
  | _ -> Error (Printf.sprintf "unknown rule token %S (%s)" token grammar)

let token_of_cond cond for_ms =
  let f = if for_ms > 0 then ":" ^ duration_to_string for_ms else "" in
  let num v = Obs_json.num_to_string v in
  (match cond with
  | Over { metric; limit } -> Printf.sprintf "over:%s:%s" metric (num limit)
  | Under { metric; limit } -> Printf.sprintf "under:%s:%s" metric (num limit)
  | Rate { metric; per_s; window_ms } ->
    Printf.sprintf "rate:%s:%s:%s" metric (num per_s)
      (duration_to_string window_ms)
  | Burn { num = n; den; short_ms; long_ms; budget_pct } ->
    Printf.sprintf "burn:%s/%s:%s,%s:%s%%" n den (duration_to_string short_ms)
      (duration_to_string long_ms) (num budget_pct)
  | Storm { code; count; window_ms } ->
    Printf.sprintf "storm:%d:%d:%s" code count (duration_to_string window_ms)
  | Reuse { count; window_ms } ->
    Printf.sprintf "reuse:%d:%s" count (duration_to_string window_ms)
  | Anomaly { metric; z } -> Printf.sprintf "anomaly:%s:%s" metric (num z))
  ^ f

let of_string spec =
  let spec = String.trim spec in
  let name, token =
    match String.index_opt spec '=' with
    | Some i
      when (match String.index_opt spec ':' with
           | Some c -> i < c
           | None -> true) ->
      ( Some (String.trim (String.sub spec 0 i)),
        String.trim (String.sub spec (i + 1) (String.length spec - i - 1)) )
    | _ -> (None, spec)
  in
  let* cond, for_ms = cond_of_token token in
  let canonical = token_of_cond cond for_ms in
  Ok
    {
      r_name = (match name with Some n when n <> "" -> n | _ -> canonical);
      r_cond = cond;
      r_for_ms = for_ms;
    }

let to_string r =
  let token = token_of_cond r.r_cond r.r_for_ms in
  if r.r_name = token then token else r.r_name ^ "=" ^ token

let rules_of_string text =
  let strip_comment line =
    match String.index_opt line '#' with
    | None -> line
    | Some i -> String.sub line 0 i
  in
  let tokens =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char ';')
    |> List.map (fun l -> String.trim (strip_comment l))
    |> List.filter (fun l -> l <> "")
  in
  let* rules =
    List.fold_left
      (fun acc tok ->
        let* acc = acc in
        let* r = of_string tok in
        Ok (r :: acc))
      (Ok []) tokens
  in
  let rules = List.rev rules in
  let rec dup_name = function
    | [] -> None
    | r :: rest ->
      if List.exists (fun r' -> r'.r_name = r.r_name) rest then Some r.r_name
      else dup_name rest
  in
  match dup_name rules with
  | Some n -> Error (Printf.sprintf "duplicate rule name %S" n)
  | None -> Ok rules

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

type state = Inactive | Pending | Firing | Resolved

let state_to_string = function
  | Inactive -> "inactive"
  | Pending -> "pending"
  | Firing -> "firing"
  | Resolved -> "resolved"

let state_of_string = function
  | "inactive" -> Some Inactive
  | "pending" -> Some Pending
  | "firing" -> Some Firing
  | "resolved" -> Some Resolved
  | _ -> None

type status = {
  s_name : string;
  s_spec : string;
  s_state : state;
  s_since : int;
  s_value : float;
  s_detail : string;
}

(* A metric's samples, oldest first, in a ring of 2^k slots that doubles
   when full: a push or a prune costs amortised O(1) and allocates only
   to grow *)
type history = {
  mutable ts : int array;
  mutable vs : float array;
  mutable first : int; (* the slot of the oldest sample *)
  mutable len : int;
}

let history () = { ts = Array.make 8 0; vs = Array.make 8 0.0; first = 0; len = 0 }
let slot h i = (h.first + i) land (Array.length h.ts - 1)

let push h ts v =
  if h.len = Array.length h.ts then begin
    let ts' = Array.make (2 * h.len) 0 and vs' = Array.make (2 * h.len) 0.0 in
    for i = 0 to h.len - 1 do
      ts'.(i) <- h.ts.(slot h i);
      vs'.(i) <- h.vs.(slot h i)
    done;
    h.ts <- ts';
    h.vs <- vs';
    h.first <- 0
  end;
  let k = slot h h.len in
  h.ts.(k) <- ts;
  h.vs.(k) <- v;
  h.len <- h.len + 1

(* drop the oldest sample while the next one is at or before [cutoff]:
   the oldest left is then the newest sample at or before [cutoff], or
   the oldest overall when the history does not reach back that far —
   the baseline of a full-window delta *)
let prune h cutoff =
  while h.len > 1 && h.ts.(slot h 1) <= cutoff do
    h.first <- slot h 1;
    h.len <- h.len - 1
  done

(* (span, increase) from the baseline to the newest sample *)
let delta h =
  if h.len = 0 then None
  else begin
    let base = slot h 0 and last = slot h (h.len - 1) in
    if h.ts.(last) > h.ts.(base) then
      Some (h.ts.(last) - h.ts.(base), h.vs.(last) -. h.vs.(base))
    else None
  end

(* a storm's count of one source's events in the window, and the rank of
   the newest of them *)
type tally = { mutable n : int; mutable newest : int }

(* per-rule runtime state; histories and event windows are oldest
   first *)
type rstate = {
  rule : rule;
  mutable st : state;
  mutable since : int;
  mutable pending_since : int;
  mutable value : float;
  mutable detail : string;
  (* Rate: its metric's samples; Burn: the numerator's over the short and
     the long window, then the denominator's *)
  hists : history array;
  events : (int * string) Queue.t; (* Storm/Reuse (time, source) *)
  tallies : (string, tally) Hashtbl.t; (* Storm: per source *)
  mutable added : int; (* Storm: events ever tallied *)
  mutable ewma_mean : float;
  mutable ewma_var : float;
  mutable ewma_n : int;
}

type t = {
  mu : Mutex.t;
  now : unit -> int;
  audit : bool;
  states : rstate array;
  mutable url_reissue_seen : bool;
  mutable trans : (int * string * state) list; (* newest first, capped *)
  mutable n_trans : int;
}

(* transitions are rare, so the registry-mutex cost of a fresh lookup
   per set is irrelevant — no memo table to share across domains *)
let firing_gauge name = Registry.gauge ~labels:[ ("rule", name) ] "alerts.firing"

let default_now () = Registry.now_ns () / 1_000_000

let create ?(now = default_now) ?(audit = false) rules =
  let states =
    Array.of_list
      (List.map
         (fun rule ->
           Registry.Gauge.set (firing_gauge rule.r_name) 0;
           let series = match rule.r_cond with Rate _ -> 1 | Burn _ -> 4 | _ -> 0 in
           {
             rule;
             st = Inactive;
             since = 0;
             pending_since = 0;
             value = 0.0;
             detail = "";
             hists = Array.init series (fun _ -> history ());
             events = Queue.create ();
             tallies = Hashtbl.create 8;
             added = 0;
             ewma_mean = 0.0;
             ewma_var = 0.0;
             ewma_n = 0;
           })
         rules)
  in
  {
    mu = Mutex.create ();
    now;
    audit;
    states;
    url_reissue_seen = false;
    trans = [];
    n_trans = 0;
  }

let rules t = Array.to_list (Array.map (fun r -> r.rule) t.states)

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* --- the event stream (audit tap) --- *)

let user_revoked_code = 7 (* Protocol_error.wire_code for user-revoked *)

(* drop the window's events at or before [cutoff], oldest first, and
   untally them *)
let prune_events r cutoff =
  while (not (Queue.is_empty r.events)) && fst (Queue.peek r.events) <= cutoff do
    let _, source = Queue.pop r.events in
    match Hashtbl.find_opt r.tallies source with
    | Some c ->
      c.n <- c.n - 1;
      if c.n = 0 then Hashtbl.remove r.tallies source
    | None -> ()
  done

(* the window of [r] gains an event from [source] at [now]; a storm
   tallies it under its source *)
let add_event r ~now ~window_ms source =
  prune_events r (now - window_ms);
  Queue.push (now, source) r.events;
  match r.rule.r_cond with
  | Storm _ -> (
    r.added <- r.added + 1;
    match Hashtbl.find_opt r.tallies source with
    | Some c ->
      c.n <- c.n + 1;
      c.newest <- r.added
    | None -> Hashtbl.add r.tallies source { n = 1; newest = r.added })
  | _ -> ()

(* Only the two kinds read here take the lock, and the clock is read
   under it, so concurrent callers add their events in time order and a
   window stays sorted *)
let observe t ~kind attrs =
  match kind with
  | "revocation_update" ->
    if List.assoc_opt "list" attrs = Some "url" then
      with_lock t (fun () -> t.url_reissue_seen <- true)
  | "access_reject"
    when Array.exists
           (fun r -> match r.rule.r_cond with Storm _ | Reuse _ -> true | _ -> false)
           t.states ->
    let code =
      match List.assoc_opt "code" attrs with
      | Some c -> int_of_string_opt c
      | None -> None
    in
    let source = Option.value ~default:"?" (List.assoc_opt "router" attrs) in
    with_lock t (fun () ->
        let now = t.now () in
        Array.iter
          (fun r ->
            match (r.rule.r_cond, code) with
            | Storm { code = want; window_ms; _ }, Some c when c = want ->
              add_event r ~now ~window_ms source
            | Reuse { window_ms; _ }, Some c
              when c = user_revoked_code && t.url_reissue_seen ->
              add_event r ~now ~window_ms source
            | _ -> ())
          t.states)
  | _ -> ()

let install_tap t = Audit.set_tap (Some (fun kind attrs -> observe t ~kind attrs))
let uninstall_tap () = Audit.set_tap None

(* --- condition evaluation --- *)

(* returns (holds, value, detail); updates the rule's sample history *)
let check ~now ~lookup r =
  match r.rule.r_cond with
  | Over { metric; limit } -> (
    match lookup metric with
    | None -> (false, r.value, metric ^ ": no data")
    | Some v ->
      ( v > limit,
        v,
        Printf.sprintf "%s = %s (limit %s)" metric (Obs_json.num_to_string v)
          (Obs_json.num_to_string limit) ))
  | Under { metric; limit } -> (
    match lookup metric with
    | None -> (false, r.value, metric ^ ": no data")
    | Some v ->
      ( v < limit,
        v,
        Printf.sprintf "%s = %s (floor %s)" metric (Obs_json.num_to_string v)
          (Obs_json.num_to_string limit) ))
  | Rate { metric; per_s; window_ms } -> (
    let h = r.hists.(0) in
    (match lookup metric with Some v -> push h now v | None -> ());
    prune h (now - window_ms);
    match delta h with
    | Some (span_ms, dv) when span_ms > 0 ->
      let rate = dv /. (float_of_int span_ms /. 1000.0) in
      ( rate > per_s,
        rate,
        Printf.sprintf "%s +%s/s over %s (limit %s/s)" metric
          (Obs_json.num_to_string rate)
          (duration_to_string window_ms)
          (Obs_json.num_to_string per_s) )
    | _ -> (false, 0.0, metric ^ ": not enough history"))
  | Burn { num; den; short_ms; long_ms; budget_pct } -> (
    let sample metric first =
      match lookup metric with
      | Some v ->
        push r.hists.(first) now v;
        push r.hists.(first + 1) now v
      | None -> ()
    in
    sample num 0;
    sample den 2;
    (* each window reads the baseline at the front of its own histories *)
    let ratio window k =
      let n = r.hists.(k) and d = r.hists.(k + 2) in
      prune n (now - window);
      prune d (now - window);
      match (delta n, delta d) with
      | Some (_, dn), Some (_, dd) when dd > 0.0 -> Some (100.0 *. dn /. dd)
      | _ -> None
    in
    match (ratio short_ms 0, ratio long_ms 1) with
    | Some rs, Some rl ->
      ( rs > budget_pct && rl > budget_pct,
        rs,
        Printf.sprintf "%s/%s = %.2f%% (%s) / %.2f%% (%s), budget %s%%" num den
          rs
          (duration_to_string short_ms)
          rl
          (duration_to_string long_ms)
          (Obs_json.num_to_string budget_pct) )
    | _ -> (false, 0.0, Printf.sprintf "%s/%s: no traffic" num den))
  | Storm { code; count; window_ms } ->
    prune_events r (now - window_ms);
    (* worst single source: a storm is one prober hammering one router;
       of the sources with the top count, the one heard from last *)
    let worst, who, _ =
      Hashtbl.fold
        (fun src c ((best, _, newest) as acc) ->
          if c.n > best || (c.n = best && c.newest > newest) then (c.n, src, c.newest)
          else acc)
        r.tallies (0, "-", 0)
    in
    ( worst >= count,
      float_of_int worst,
      Printf.sprintf "code %d x%d from %s in %s (threshold %d)" code worst who
        (duration_to_string window_ms)
        count )
  | Reuse { count; window_ms } ->
    prune_events r (now - window_ms);
    let n = Queue.length r.events in
    ( n >= count,
      float_of_int n,
      Printf.sprintf "%d revoked-credential rejects in %s after URL reissue \
                      (threshold %d)"
        n
        (duration_to_string window_ms)
        count )
  | Anomaly { metric; z } -> (
    match lookup metric with
    | None -> (false, r.value, metric ^ ": no data")
    | Some v ->
      let alpha = 0.2 and warmup = 8 in
      let zscore =
        if r.ewma_n < warmup then 0.0
        else begin
          let sigma = Float.sqrt r.ewma_var in
          (* floor sigma so microscopic jitter after a constant warmup
             does not read as infinitely anomalous *)
          let sigma =
            Float.max sigma ((0.01 *. Float.abs r.ewma_mean) +. 1e-9)
          in
          (v -. r.ewma_mean) /. sigma
        end
      in
      let d = v -. r.ewma_mean in
      if r.ewma_n = 0 then r.ewma_mean <- v
      else begin
        r.ewma_mean <- r.ewma_mean +. (alpha *. d);
        r.ewma_var <- ((1.0 -. alpha) *. r.ewma_var) +. (alpha *. d *. d)
      end;
      r.ewma_n <- r.ewma_n + 1;
      ( zscore > z,
        zscore,
        Printf.sprintf "%s z = %.2f (threshold %s, mean %.1f)" metric zscore
          (Obs_json.num_to_string z) r.ewma_mean ))

(* --- state machine --- *)

let max_transitions = 1024

let transition t r ~now active =
  let set st =
    r.st <- st;
    r.since <- now;
    t.trans <- (now, r.rule.r_name, st) :: t.trans;
    t.n_trans <- t.n_trans + 1;
    if t.n_trans > max_transitions then begin
      t.trans <- List.filteri (fun i _ -> i < max_transitions) t.trans;
      t.n_trans <- max_transitions
    end;
    Registry.Gauge.set (firing_gauge r.rule.r_name)
      (if st = Firing then 1 else 0);
    Some st
  in
  match (r.st, active) with
  | (Inactive | Resolved), true ->
    r.pending_since <- now;
    if r.rule.r_for_ms <= 0 then set Firing else set Pending
  | Pending, true ->
    if now - r.pending_since >= r.rule.r_for_ms then set Firing else None
  | Firing, true -> None
  | Pending, false -> set Inactive
  | Firing, false -> set Resolved
  | (Inactive | Resolved), false -> None

let status_of r =
  {
    s_name = r.rule.r_name;
    s_spec = token_of_cond r.rule.r_cond r.rule.r_for_ms;
    s_state = r.st;
    s_since = r.since;
    s_value = r.value;
    s_detail = r.detail;
  }

let eval ?(lookup = fun name -> Registry.lookup name) t =
  let now = t.now () in
  let out, effects =
    with_lock t (fun () ->
        let effects = ref [] in
        let statuses =
          Array.to_list
            (Array.map
               (fun r ->
                 let active, value, detail = check ~now ~lookup r in
                 r.value <- value;
                 r.detail <- detail;
                 (match transition t r ~now active with
                 | Some st -> effects := (r.rule.r_name, st, value, detail) :: !effects
                 | None -> ());
                 status_of r)
               t.states)
        in
        (statuses, List.rev !effects))
  in
  (* transition side effects happen outside the lock: an audit emit
     re-enters the tap, which would deadlock on t.mu *)
  List.iter
    (fun (name, st, value, detail) ->
      let attrs =
        [
          ("rule", name);
          ("state", state_to_string st);
          ("value", Printf.sprintf "%.6g" value);
        ]
      in
      let line =
        Printf.sprintf "alert %s: %s (%s)" (state_to_string st) name detail
      in
      (match st with
      | Firing -> Log.warn ~attrs line
      | Pending | Resolved | Inactive -> Log.info ~attrs line);
      if t.audit then Audit.emit ~kind:"alert" attrs)
    effects;
  out

let statuses t =
  with_lock t (fun () -> Array.to_list (Array.map status_of t.states))

let firing t = List.filter (fun s -> s.s_state = Firing) (statuses t)

let transitions t = with_lock t (fun () -> List.rev t.trans)

let to_json ?state t =
  let all = statuses t in
  let keep = match state with None -> all | Some st ->
    List.filter (fun s -> s.s_state = st) all
  in
  let item s =
    Printf.sprintf
      "{\"rule\":%s,\"spec\":%s,\"state\":%s,\"since_ms\":%d,\"value\":%s,\"detail\":%s}"
      (Obs_json.str s.s_name) (Obs_json.str s.s_spec)
      (Obs_json.str (state_to_string s.s_state))
      s.s_since
      (Obs_json.num_to_string s.s_value)
      (Obs_json.str s.s_detail)
  in
  "{\"alerts\":[" ^ String.concat "," (List.map item keep) ^ "]}"

(* ------------------------------------------------------------------ *)
(* Offline replay                                                      *)
(* ------------------------------------------------------------------ *)

let replay_timeline ?audit rules text =
  let clock = ref 0 in
  let t = create ~now:(fun () -> !clock) ?audit rules in
  let values : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let lookup name = Hashtbl.find_opt values name in
  let flush ts =
    clock := ts;
    ignore (eval ~lookup t)
  in
  let pending_ts = ref None in
  let feed line =
    let line = String.trim line in
    if line = "" then Ok ()
    else
      match Obs_json.parse line with
      | Error _ -> Ok () (* non-JSON lines (headers, spans) are ignored *)
      | Ok json ->
        if Obs_json.member "kind" json = Some (Obs_json.Str "sample") then begin
          match
            ( Obs_json.member "series" json,
              Obs_json.member "ts" json,
              Obs_json.member "v" json )
          with
          | Some (Obs_json.Str series), Some (Obs_json.Num ts),
            Some (Obs_json.Num v) ->
            let ts = int_of_float ts in
            (match !pending_ts with
            | Some prev when prev <> ts -> flush prev
            | _ -> ());
            pending_ts := Some ts;
            Hashtbl.replace values series v;
            Ok ()
          | _ -> Error ("malformed sample line: " ^ line)
        end
        else Ok ()
  in
  let rec feed_all = function
    | [] -> Ok ()
    | l :: rest -> ( match feed l with Ok () -> feed_all rest | e -> e)
  in
  match feed_all (String.split_on_char '\n' text) with
  | Error e -> Error e
  | Ok () ->
    (match !pending_ts with Some ts -> flush ts | None -> ());
    Ok (t, statuses t)
