module Obs = Peace_obs.Registry

(* link-level fault events, scrapeable like every other registry series *)
let c_lost = Obs.counter "sim.faults.frames_lost"
let c_dup = Obs.counter "sim.faults.duplicated"
let c_corrupt = Obs.counter "sim.faults.corrupted"
let c_reorder = Obs.counter "sim.faults.reordered"

type channel =
  | Clear
  | Bernoulli of float
  | Burst of {
      p_gb : float;
      p_bg : float;
      loss_good : float;
      loss_bad : float;
    }

type churn = { churn_period_ms : int; churn_downtime_ms : int }

type plan = {
  channel : channel;
  dup_prob : float;
  reorder_prob : float;
  reorder_ms : int;
  corrupt_prob : float;
  churn : churn option;
  stale_after_ms : int option;
}

let none =
  {
    channel = Clear;
    dup_prob = 0.0;
    reorder_prob = 0.0;
    reorder_ms = 0;
    corrupt_prob = 0.0;
    churn = None;
    stale_after_ms = None;
  }

let is_none p = p = none

let grammar =
  "SPEC is comma-separated tokens: none | loss:P | burst:PGB:PBG:LBAD[:LGOOD] \
   | dup:P | reorder:P:MS | corrupt:P | churn:PERIOD_MS:DOWN_MS | stale:AFTER_MS"

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                        *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let prob ~tok s =
  match float_of_string_opt s with
  | Some p when p >= 0.0 && p <= 1.0 -> Ok p
  | _ -> Error (Printf.sprintf "%s: %S is not a probability in [0,1]" tok s)

let positive_ms ~tok s =
  match int_of_string_opt s with
  | Some n when n > 0 -> Ok n
  | _ -> Error (Printf.sprintf "%s: %S is not a positive integer (ms)" tok s)

let of_string spec =
  let apply plan token =
    match String.split_on_char ':' token with
    | [ "none" ] -> Ok plan
    | [ "loss"; p ] ->
      let* p = prob ~tok:"loss" p in
      Ok { plan with channel = Bernoulli p }
    | "burst" :: args -> begin
      match args with
      | [ p_gb; p_bg; loss_bad ] | [ p_gb; p_bg; loss_bad; _ ] ->
        let* p_gb = prob ~tok:"burst" p_gb in
        let* p_bg = prob ~tok:"burst" p_bg in
        let* loss_bad = prob ~tok:"burst" loss_bad in
        let* loss_good =
          match args with
          | [ _; _; _; lg ] -> prob ~tok:"burst" lg
          | _ -> Ok 0.0
        in
        Ok { plan with channel = Burst { p_gb; p_bg; loss_good; loss_bad } }
      | _ -> Error "burst: expected burst:PGB:PBG:LBAD[:LGOOD]"
    end
    | [ "dup"; p ] ->
      let* p = prob ~tok:"dup" p in
      Ok { plan with dup_prob = p }
    | [ "reorder"; p; ms ] ->
      let* p = prob ~tok:"reorder" p in
      let* ms = positive_ms ~tok:"reorder" ms in
      Ok { plan with reorder_prob = p; reorder_ms = ms }
    | [ "corrupt"; p ] ->
      let* p = prob ~tok:"corrupt" p in
      Ok { plan with corrupt_prob = p }
    | [ "churn"; period; down ] ->
      let* churn_period_ms = positive_ms ~tok:"churn" period in
      let* churn_downtime_ms = positive_ms ~tok:"churn" down in
      Ok { plan with churn = Some { churn_period_ms; churn_downtime_ms } }
    | [ "stale"; after ] ->
      let* after = positive_ms ~tok:"stale" after in
      Ok { plan with stale_after_ms = Some after }
    | _ -> Error (Printf.sprintf "unknown fault token %S" token)
  in
  let tokens =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  match tokens with
  | [] -> Error "empty fault spec"
  | _ -> List.fold_left (fun acc tok -> let* p = acc in apply p tok) (Ok none) tokens

let to_string p =
  let f = Printf.sprintf "%g" in
  let parts =
    (match p.channel with
    | Clear -> []
    | Bernoulli pr -> [ "loss:" ^ f pr ]
    | Burst { p_gb; p_bg; loss_good; loss_bad } ->
      [
        (if loss_good = 0.0 then
           Printf.sprintf "burst:%s:%s:%s" (f p_gb) (f p_bg) (f loss_bad)
         else
           Printf.sprintf "burst:%s:%s:%s:%s" (f p_gb) (f p_bg) (f loss_bad)
             (f loss_good));
      ])
    @ (if p.dup_prob > 0.0 then [ "dup:" ^ f p.dup_prob ] else [])
    @ (if p.reorder_prob > 0.0 then
         [ Printf.sprintf "reorder:%s:%d" (f p.reorder_prob) p.reorder_ms ]
       else [])
    @ (if p.corrupt_prob > 0.0 then [ "corrupt:" ^ f p.corrupt_prob ] else [])
    @ (match p.churn with
      | Some c ->
        [ Printf.sprintf "churn:%d:%d" c.churn_period_ms c.churn_downtime_ms ]
      | None -> [])
    @
    match p.stale_after_ms with
    | Some ms -> [ Printf.sprintf "stale:%d" ms ]
    | None -> []
  in
  match parts with [] -> "none" | _ -> String.concat "," parts

(* ------------------------------------------------------------------ *)
(* Link state                                                          *)
(* ------------------------------------------------------------------ *)

type link = {
  plan : plan;
  rand : Sim_rand.t;
  mutable bad : bool; (* Gilbert–Elliott chain state *)
  mutable lost : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable reordered : int;
}

let link ?(seed = 0x5eed) plan =
  {
    plan;
    rand = Sim_rand.create ~seed;
    bad = false;
    lost = 0;
    duplicated = 0;
    corrupted = 0;
    reordered = 0;
  }

let counters t =
  [
    ("corrupted", t.corrupted);
    ("duplicated", t.duplicated);
    ("lost", t.lost);
    ("reordered", t.reordered);
  ]

(* sample loss under the current channel state, then advance the chain —
   a fixed draw order keeps fault sequences reproducible *)
let channel_drops t =
  match t.plan.channel with
  | Clear -> false
  | Bernoulli p -> p > 0.0 && Sim_rand.bool t.rand ~p
  | Burst { p_gb; p_bg; loss_good; loss_bad } ->
    let p = if t.bad then loss_bad else loss_good in
    let dropped = p > 0.0 && Sim_rand.bool t.rand ~p in
    (if t.bad then begin
       if Sim_rand.bool t.rand ~p:p_bg then t.bad <- false
     end
     else if Sim_rand.bool t.rand ~p:p_gb then t.bad <- true);
    dropped

(* flip 1–3 random bits: the frame stays plausible enough to reach the
   parsers, which must reject it (Wire reads and MACs), never crash *)
let corrupt t payload =
  let n = String.length payload in
  if n = 0 then payload
  else begin
    let b = Bytes.of_string payload in
    let flips = 1 + Sim_rand.int t.rand 3 in
    for _ = 1 to flips do
      let bit = Sim_rand.int t.rand (n * 8) in
      let byte = bit / 8 and mask = 1 lsl (bit mod 8) in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor mask))
    done;
    Bytes.to_string b
  end

let one_delivery t payload =
  let extra =
    if t.plan.reorder_prob > 0.0 && Sim_rand.bool t.rand ~p:t.plan.reorder_prob
    then begin
      t.reordered <- t.reordered + 1;
      Obs.Counter.incr c_reorder;
      1 + Sim_rand.int t.rand t.plan.reorder_ms
    end
    else 0
  in
  let payload =
    if
      t.plan.corrupt_prob > 0.0
      && Sim_rand.bool t.rand ~p:t.plan.corrupt_prob
    then begin
      t.corrupted <- t.corrupted + 1;
      Obs.Counter.incr c_corrupt;
      corrupt t payload
    end
    else payload
  in
  (extra, payload)

let transmit t payload =
  if channel_drops t then begin
    t.lost <- t.lost + 1;
    Obs.Counter.incr c_lost;
    []
  end
  else begin
    let first = one_delivery t payload in
    if t.plan.dup_prob > 0.0 && Sim_rand.bool t.rand ~p:t.plan.dup_prob then begin
      t.duplicated <- t.duplicated + 1;
      Obs.Counter.incr c_dup;
      [ first; one_delivery t payload ]
    end
    else [ first ]
  end
