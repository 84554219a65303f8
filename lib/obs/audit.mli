(** Tamper-evident audit ledger: hash-chained security events with
    signed checkpoints.

    PEACE is privacy-enhanced {e yet accountable}: the §IV-D audit
    protocols attribute sessions to groups (NO) or users (LA+GM), and
    billing attributes each metered session the same way, all from this
    ledger. Every security-relevant event — access accept/reject with its
    stable rejection code, CRL/URL revocation updates, group audits,
    user-level opens, session-close accounting — becomes one append-only
    record carrying a sequence number and

    {v hash = SHA-256(prev_hash ‖ canonical-JSON record) v}

    so in-place tampering and reordering break the chain. An
    [access_accept], the only record of an accepted session, carries its
    id, (M.2) transcript and group signature: what the audit opens, read
    back once the chain verifies (by [Mesh_router.accepted_sessions]).
    Every K records (and once more when the ledger is {!seal}ed) a
    {b checkpoint} record is appended whose ECDSA signature — produced
    by the injected {!signer}, normally the network operator's
    certificate key — covers the chain head, so truncating the tail is
    detectable offline too: {!verify} requires the ledger to end at a
    checkpoint.

    The module is deliberately crypto-agnostic: it hashes with
    {!Peace_hash} but takes signing and verification as functions, so the
    observability layer stays below [lib/ec] in the dependency order.
    Records render as JSONL (one object per line); a sink receives each
    line as it is appended, and a bounded in-memory ring backs the
    [/audit] endpoints of {!Serve}. *)

type t

(** Checkpoint signer. [s_algo] and [s_pk] (hex) are embedded in the
    genesis record so a verifier can reconstruct the verification
    function offline; [s_sign] maps a checkpoint payload to a hex
    signature. *)
type signer = { s_algo : string; s_pk : string; s_sign : string -> string }

val create :
  ?checkpoint_every:int ->
  ?signer:signer ->
  ?sink:(string -> unit) ->
  ?meta:(string * string) list ->
  unit ->
  t
(** A fresh ledger. Appends the genesis record (seq 0) immediately, which
    embeds the chain parameters, the signer identity (or [algo=none]) and
    [meta]. [checkpoint_every] is K (default 32 event records between
    checkpoints); the in-memory ring behind {!since} keeps the last 4096
    records, which bounds the ledger's memory: an [access_accept] renders
    to about 1.1 kB at [light] parameters, so the ring holds about
    4.6 MB. [sink] receives every rendered line (no trailing newline),
    serialised under the ledger lock. *)

val append : t -> kind:string -> (string * string) list -> int
(** Append one event record; returns its sequence number. Attribute
    values are strings; keys are canonicalised (sorted) before hashing.
    Thread-safe. Appending to a sealed ledger is a counted no-op (returns
    the last sequence number) so shutdown races never raise. Each append
    bumps [audit.records_total{kind=...}]. *)

val seal : t -> unit
(** Append the final checkpoint and refuse further records. Idempotent. *)

val sealed : t -> bool

val head : t -> int * string
(** [(last sequence number, hex hash of the chain head)]. *)

val records : t -> int
(** Total records appended, checkpoints and genesis included. *)

val checkpoints : t -> int
val head_json : t -> string
(** The [/audit/head] body:
    [{"seq":..,"hash":"..","records":..,"checkpoints":..,"sealed":..}]. *)

val since : t -> int -> string list
(** Rendered records with sequence number strictly greater than the
    argument, oldest first — the [/audit?since=SEQ] body. Bounded by the
    ring: records that have left it are not replayed (read the JSONL
    sink for the full history). *)

(** {1 The installed ledger}

    Emission sites in [lib/core] (router accept/reject, revocation
    reissue, audits, accounting) call {!emit}, which appends to the
    process-wide installed ledger and costs one atomic read when none is
    installed — simulations and servers opt in by installing one. *)

val install : t option -> unit
val installed : unit -> t option
val emit : kind:string -> (string * string) list -> unit

val set_tap : (string -> (string * string) list -> unit) option -> unit
(** Install (or remove) a process-wide event tap: the function sees every
    {!emit}ted [(kind, attrs)] — whether or not a ledger is installed —
    before the ledger append. Exceptions in the tap are swallowed. The
    alert layer's stream detectors ({!Alert.install_tap}) subscribe here. *)

(** {1 Offline verification} *)

type report = {
  vr_records : int;
  vr_checkpoints : int;
  vr_last_seq : int;
  vr_head : string;
  vr_signed : bool;  (** genesis declared a signing algorithm *)
  vr_walked : (string * (string * string) list) list;
      (** every record's kind and attributes, oldest first: what a reader
          may believe once the chain verifies *)
}

type break_ = { br_seq : int; br_reason : string }
(** The first record at which the ledger fails to verify. *)

val verify :
  ?verify_sig:
    (algo:string -> pk:string -> payload:string -> signature:string -> bool) ->
  ?require_seal:bool ->
  string list ->
  (report, break_) result
(** Re-walk a ledger (one rendered record per line): sequence numbers
    must be dense from 0, every [prev] must equal the previous record's
    hash, every hash must recompute from the canonical record, and every
    checkpoint signature must verify via [verify_sig] against the
    genesis-embedded key. Without [verify_sig] signatures are not checked
    (chain-only verification). [require_seal] (default [true]) demands
    the ledger end at a checkpoint, which is what makes tail truncation
    detectable. *)
