(** Deterministic fault injection for the simulated radio and topology.

    A {!plan} describes everything that may go wrong during a run: the
    channel model (Bernoulli or Gilbert–Elliott two-state burst loss),
    frame duplication, reordering, payload corruption (random bit flips
    that the wire/MAC layers must {e reject}, never crash on), scheduled
    router crash/restart churn, and a CRL/URL staleness partition (one
    router keeps serving an outdated revocation list).

    Everything is driven by a dedicated splitmix64 stream derived from the
    scenario seed, so identical seed + identical plan reproduces the exact
    same fault sequence — and a plan of {!none} leaves the run bit-identical
    to a fault-free one (the scenario's own random streams are never
    touched). *)

(** Channel model applied per transmitted frame. *)
type channel =
  | Clear  (** no channel-induced loss *)
  | Bernoulli of float  (** independent loss with this probability *)
  | Burst of {
      p_gb : float;  (** good→bad transition probability per frame *)
      p_bg : float;  (** bad→good transition probability per frame *)
      loss_good : float;  (** loss probability while in the good state *)
      loss_bad : float;  (** loss probability while in the bad state *)
    }
      (** Gilbert–Elliott: losses cluster into bursts while the chain sits
          in the bad state (mean burst length 1/p_bg frames). *)

(** Scheduled router crash/restart cycle: every [churn_period_ms] one
    router (round-robin) crashes — it leaves the radio, drops its queue and
    stops beaconing — and restarts [churn_downtime_ms] later. *)
type churn = { churn_period_ms : int; churn_downtime_ms : int }

type plan = {
  channel : channel;
  dup_prob : float;  (** per-frame probability of a duplicate delivery *)
  reorder_prob : float;
      (** per-frame probability of an extra delivery delay, letting later
          frames overtake this one *)
  reorder_ms : int;  (** maximum extra delay of a reordered frame *)
  corrupt_prob : float;  (** per-delivery probability of 1–3 bit flips *)
  churn : churn option;
  stale_after_ms : int option;
      (** if set: at this offset into the run one designated router's
          CRL/URL view is frozen while a user is revoked — the router keeps
          admitting it (the staleness window the paper's §V-A bounds) *)
}

val none : plan
(** Clear channel, no duplication/reordering/corruption/churn/staleness. *)

val is_none : plan -> bool

val of_string : string -> (plan, string) result
(** Parses a compact spec: comma-separated tokens, each [key:v[:v..]].

    {v
    none                      the empty plan
    loss:P                    Bernoulli loss with probability P
    burst:PGB:PBG:LBAD[:LGOOD]  Gilbert–Elliott (loss_good defaults to 0)
    dup:P                     duplicate frames with probability P
    reorder:P:MS              delay frames by up to MS extra ms with prob. P
    corrupt:P                 flip 1–3 payload bits with probability P
    churn:PERIOD:DOWN         crash a router every PERIOD ms for DOWN ms
    stale:AFTER               freeze one router's revocation lists AFTER ms in
    v}

    Example: ["burst:0.05:0.3:0.8,dup:0.02,corrupt:0.01,churn:8000:2000"]. *)

val to_string : plan -> string
(** Canonical spec string; [of_string (to_string p)] round-trips. *)

val grammar : string
(** One-line usage summary of the spec grammar, for CLI error messages. *)

(** {1 Link-level application}

    A [link] holds the channel state machine plus its private random
    stream. {!Net} routes every transmitted frame through {!transmit}. *)

type link

val link : ?seed:int -> plan -> link
(** Fresh link state. The default seed is fixed; scenarios derive one from
    their own seed so runs stay reproducible. *)

val transmit : link -> string -> (int * string) list
(** Applies the channel to one frame, in transmit order. Returns the
    deliveries as [(extra_delay_ms, payload)] pairs: [[]] when the channel
    lost the frame, one entry for a clean delivery, two when duplicated.
    Payloads may come back corrupted (bit-flipped). Advances the
    Gilbert–Elliott chain one step per call. *)

val counters : link -> (string * int) list
(** Frames lost, duplicated, corrupted and reordered so far, as
    [("corrupted", n); ("duplicated", n); ...] — sorted,
    structural-equality-friendly for determinism tests. Every link also
    adds its events to the process-wide registry counters
    [sim.faults.frames_lost], [sim.faults.duplicated],
    [sim.faults.corrupted] and [sim.faults.reordered]. *)
