(* Hash-chained audit ledger with signed checkpoints.

   Chain rule: record i carries seq = i, prev = hash of record i-1 (64
   zeros for the genesis) and hash = SHA-256(prev ‖ canonical), where
   canonical is the record's JSON without the hash field, attributes
   sorted by key. Timestamps are rendered as JSON *strings*: wall-clock
   nanoseconds exceed 2^53, and a float round-trip through the verifier's
   JSON parser would corrupt them — and therefore the recomputed hash.

   Checkpoints are ordinary chained records (kind "checkpoint") whose
   single attribute is an externally-produced signature over
   (own seq, chain head); because the head hash transitively commits to
   every earlier record, one valid checkpoint signature authenticates the
   whole prefix. Signing is injected: this module sits below lib/ec in
   the dependency order and must not call ECDSA itself. *)

type signer = { s_algo : string; s_pk : string; s_sign : string -> string }

type t = {
  every : int; (* K: event records between checkpoints *)
  signer : signer option;
  sink : (string -> unit) option;
  ring : (int * string) option array; (* seq -> rendered line, bounded *)
  mu : Mutex.t;
  mutable next_seq : int;
  mutable prev : string; (* hex hash of the chain head *)
  mutable since_ckpt : int;
  mutable n_checkpoints : int;
  mutable is_sealed : bool;
}

let zero_hash = String.make 64 '0'
let c_records = Registry.counter_family ~label:"kind" "audit.records_total"
let c_dropped = Registry.counter "audit.dropped_total"

let canonical ~seq ~ts ~kind ~prev attrs =
  let attrs = List.sort (fun (a, _) (b, _) -> compare a b) attrs in
  let fields =
    List.map (fun (k, v) -> Obs_json.str k ^ ":" ^ Obs_json.str v) attrs
  in
  Printf.sprintf "{\"seq\":%d,\"ts\":%s,\"kind\":%s,\"prev\":%s,\"attrs\":{%s}}"
    seq
    (Obs_json.str ts)
    (Obs_json.str kind) (Obs_json.str prev)
    (String.concat "," fields)

let record_hash ~prev canonical =
  Peace_hash.Sha256.to_hex
    (Peace_hash.Sha256.digest (prev ^ canonical))

(* the stored line is the canonical record with the hash spliced in
   before the closing brace, so verification can rebuild the canonical
   form from the parsed fields alone *)
let render canonical hash =
  String.sub canonical 0 (String.length canonical - 1)
  ^ ",\"hash\":" ^ Obs_json.str hash ^ "}"

let checkpoint_payload ~seq ~head =
  Printf.sprintf "peace-audit-checkpoint:%d:%s" seq head

(* caller holds t.mu *)
let append_locked t ~kind attrs =
  let seq = t.next_seq in
  let ts = string_of_int (Registry.now_ns ()) in
  let canon = canonical ~seq ~ts ~kind ~prev:t.prev attrs in
  let hash = record_hash ~prev:t.prev canon in
  let line = render canon hash in
  t.ring.(seq mod Array.length t.ring) <- Some (seq, line);
  t.next_seq <- seq + 1;
  t.prev <- hash;
  Registry.Counter.incr (c_records kind);
  (match t.sink with
  | None -> ()
  | Some write -> ( try write line with _ -> ()));
  seq

let checkpoint_locked t ~final =
  let seq = t.next_seq in
  let payload = checkpoint_payload ~seq ~head:t.prev in
  let attrs =
    (match t.signer with
    | None -> []
    | Some s -> [ ("sig", s.s_sign payload) ])
    @ (if final then [ ("final", "true") ] else [])
  in
  ignore (append_locked t ~kind:"checkpoint" attrs);
  t.n_checkpoints <- t.n_checkpoints + 1;
  t.since_ckpt <- 0

let create ?(checkpoint_every = 32) ?signer ?sink ?(meta = []) () =
  if checkpoint_every <= 0 then invalid_arg "Audit.create: checkpoint_every";
  let t =
    {
      every = checkpoint_every;
      signer;
      sink;
      ring = Array.make 4096 None;
      mu = Mutex.create ();
      next_seq = 0;
      prev = zero_hash;
      since_ckpt = 0;
      n_checkpoints = 0;
      is_sealed = false;
    }
  in
  let genesis =
    [
      ("format", "peace-audit-v1");
      ("every", string_of_int checkpoint_every);
      ("algo", match signer with Some s -> s.s_algo | None -> "none");
    ]
    @ (match signer with Some s -> [ ("pk", s.s_pk) ] | None -> [])
    @ meta
  in
  Mutex.lock t.mu;
  ignore (append_locked t ~kind:"genesis" genesis);
  Mutex.unlock t.mu;
  t

let append t ~kind attrs =
  Mutex.lock t.mu;
  let seq =
    if t.is_sealed then begin
      Registry.Counter.incr c_dropped;
      t.next_seq - 1
    end
    else begin
      let seq = append_locked t ~kind attrs in
      t.since_ckpt <- t.since_ckpt + 1;
      if t.since_ckpt >= t.every then checkpoint_locked t ~final:false;
      seq
    end
  in
  Mutex.unlock t.mu;
  seq

let seal t =
  Mutex.lock t.mu;
  if not t.is_sealed then begin
    checkpoint_locked t ~final:true;
    t.is_sealed <- true
  end;
  Mutex.unlock t.mu

let sealed t = t.is_sealed
let head t = (t.next_seq - 1, t.prev)
let records t = t.next_seq
let checkpoints t = t.n_checkpoints

let head_json t =
  Mutex.lock t.mu;
  let s =
    Printf.sprintf
      "{\"seq\":%d,\"hash\":%s,\"records\":%d,\"checkpoints\":%d,\"sealed\":%b}"
      (t.next_seq - 1)
      (Obs_json.str t.prev)
      t.next_seq t.n_checkpoints t.is_sealed
  in
  Mutex.unlock t.mu;
  s

let since t after =
  Mutex.lock t.mu;
  let cap = Array.length t.ring in
  let lo = Stdlib.max (Stdlib.max 0 (after + 1)) (t.next_seq - cap) in
  let out = ref [] in
  for seq = t.next_seq - 1 downto lo do
    match t.ring.(seq mod cap) with
    | Some (s, line) when s = seq -> out := line :: !out
    | _ -> ()
  done;
  Mutex.unlock t.mu;
  !out

(* --- the process-wide ledger the core emission sites feed --- *)

let current : t option Atomic.t = Atomic.make None
let install o = Atomic.set current o
let installed () = Atomic.get current

(* a tap sees every emitted event whether or not a ledger is installed —
   the alert layer's stream detectors subscribe here without forcing an
   audit trail on processes that don't keep one *)
let tap : (string -> (string * string) list -> unit) option Atomic.t =
  Atomic.make None

let set_tap f = Atomic.set tap f

let emit ~kind attrs =
  (match Atomic.get tap with
  | None -> ()
  | Some f -> ( try f kind attrs with _ -> ()));
  match Atomic.get current with
  | None -> ()
  | Some t -> ignore (append t ~kind attrs)

(* --- offline verification --- *)

type report = {
  vr_records : int;
  vr_checkpoints : int;
  vr_last_seq : int;
  vr_head : string;
  vr_signed : bool;
  vr_walked : (string * (string * string) list) list;
}

type break_ = { br_seq : int; br_reason : string }

type parsed = {
  p_seq : int;
  p_ts : string;
  p_kind : string;
  p_prev : string;
  p_hash : string;
  p_attrs : (string * string) list;
}

let parse_record line =
  match Obs_json.parse line with
  | Error e -> Error ("unparseable record: " ^ e)
  | Ok json -> (
    let str_field k =
      match Obs_json.member k json with
      | Some (Obs_json.Str s) -> Some s
      | _ -> None
    in
    let seq =
      match Obs_json.member "seq" json with
      | Some (Obs_json.Num f) when Float.is_integer f -> Some (int_of_float f)
      | _ -> None
    in
    let attrs =
      match Obs_json.member "attrs" json with
      | Some (Obs_json.Obj fields) ->
        let rec conv acc = function
          | [] -> Some (List.rev acc)
          | (k, Obs_json.Str v) :: rest -> conv ((k, v) :: acc) rest
          | _ -> None
        in
        conv [] fields
      | _ -> None
    in
    match
      (seq, str_field "ts", str_field "kind", str_field "prev",
       str_field "hash", attrs)
    with
    | Some p_seq, Some p_ts, Some p_kind, Some p_prev, Some p_hash,
      Some p_attrs ->
      Ok { p_seq; p_ts; p_kind; p_prev; p_hash; p_attrs }
    | _ -> Error "malformed record: missing or mistyped field")

let verify ?verify_sig ?(require_seal = true) lines =
  let fail br_seq br_reason = Error { br_seq; br_reason } in
  if lines = [] then fail 0 "empty ledger"
  else begin
    let genesis_algo = ref "none" in
    let genesis_pk = ref "" in
    let n_checkpoints = ref 0 in
    let last_kind = ref "" in
    let prev = ref zero_hash in
    let walked = ref [] in
    let rec walk expected = function
      | [] ->
        if require_seal && !last_kind <> "checkpoint" then
          fail (expected - 1)
            "ledger does not end at a checkpoint (tail truncated?)"
        else
          Ok
            {
              vr_records = expected;
              vr_checkpoints = !n_checkpoints;
              vr_last_seq = expected - 1;
              vr_head = !prev;
              vr_signed = !genesis_algo <> "none";
              vr_walked = List.rev !walked;
            }
      | line :: rest -> (
        match parse_record line with
        | Error reason -> fail expected reason
        | Ok r ->
          if r.p_seq <> expected then
            fail expected
              (Printf.sprintf "out-of-order record: found seq %d where %d \
                               was expected"
                 r.p_seq expected)
          else if r.p_prev <> !prev then
            fail expected "chain break: prev does not match previous hash"
          else begin
            let canon =
              canonical ~seq:r.p_seq ~ts:r.p_ts ~kind:r.p_kind ~prev:r.p_prev
                r.p_attrs
            in
            if record_hash ~prev:r.p_prev canon <> r.p_hash then
              fail expected "record hash mismatch (record altered)"
            else begin
              let checkpoint_ok () =
                incr n_checkpoints;
                match (!genesis_algo, verify_sig) with
                | "none", _ | _, None -> None
                | algo, Some check -> (
                  match List.assoc_opt "sig" r.p_attrs with
                  | None -> Some "checkpoint is missing its signature"
                  | Some signature ->
                    let payload =
                      checkpoint_payload ~seq:r.p_seq ~head:r.p_prev
                    in
                    if check ~algo ~pk:!genesis_pk ~payload ~signature then
                      None
                    else Some "bad checkpoint signature")
              in
              let structural =
                if expected = 0 then
                  if r.p_kind <> "genesis" then
                    Some "first record is not a genesis record"
                  else begin
                    (match List.assoc_opt "algo" r.p_attrs with
                    | Some a -> genesis_algo := a
                    | None -> ());
                    (match List.assoc_opt "pk" r.p_attrs with
                    | Some pk -> genesis_pk := pk
                    | None -> ());
                    None
                  end
                else if r.p_kind = "checkpoint" then checkpoint_ok ()
                else None
              in
              match structural with
              | Some reason -> fail expected reason
              | None ->
                prev := r.p_hash;
                last_kind := r.p_kind;
                walked := (r.p_kind, r.p_attrs) :: !walked;
                walk (expected + 1) rest
            end
          end)
    in
    walk 0 lines
  end
