(** Declarative alerting over the live metric registry and the audit
    event stream.

    The accountability story (paper §IV: revocation, group audit, user
    opening) assumes someone {e notices} misbehavior. This module closes
    that loop: a small set of rules — written in a compact spec grammar
    like {!Peace_sim.Faults} — is evaluated periodically against
    {!Registry.lookup}, while streaming detectors watch the audit event
    stream ({!Audit.set_tap}) for reject storms and revoked-credential
    reuse. Each rule runs a
    [pending -> firing -> resolved] state machine with a for-duration
    debounce; transitions land in the registry
    ([alerts.firing{rule="..."}]), the {!Log} flight recorder, and —
    when [audit] is set — the installed audit ledger as [kind="alert"]
    records.

    The evaluator clock is injectable, so the simulator can evaluate
    rules on deterministic sim time and a chaos plan provably trips the
    same rule at the same sim timestamp for the same seed. *)

(** {1 Rules} *)

(** What a rule watches. Metric-valued conditions resolve names through
    the evaluation lookup (default {!Registry.lookup}); event-valued
    conditions ([Storm], [Reuse]) consume audit events via {!observe}. *)
type cond =
  | Over of { metric : string; limit : float }
      (** current value strictly above [limit] *)
  | Under of { metric : string; limit : float }
      (** current value strictly below [limit] *)
  | Rate of { metric : string; per_s : float; window_ms : int }
      (** increase per second over the trailing window above [per_s] *)
  | Burn of {
      num : string;
      den : string;
      short_ms : int;
      long_ms : int;
      budget_pct : float;
    }
      (** multi-window SLO burn: [num]'s increase divided by [den]'s
          increase exceeds [budget_pct]% over {e both} windows *)
  | Storm of { code : int; count : int; window_ms : int }
      (** at least [count] [access_reject] events carrying wire code
          [code] from a single source (the [router] attr) inside the
          window — the probe-attack / reject-storm detector *)
  | Reuse of { count : int; window_ms : int }
      (** at least [count] user-revoked rejects (wire code 7) inside the
          window, after a [revocation_update list=url] reissue has been
          seen — the revoked-credential-reuse detector *)
  | Anomaly of { metric : string; z : float }
      (** EWMA z-score of the metric (e.g. a [router.*] histogram mean)
          above [z] — the handshake-latency anomaly detector *)

type rule = { r_name : string; r_cond : cond; r_for_ms : int }
(** [r_for_ms] is the for-duration debounce: the condition must hold
    that long before [Pending] becomes [Firing] (0 = immediately). *)

val grammar : string
(** One-line usage string for CLI [--help] and error messages. *)

val of_string : string -> (rule, string) result
(** Parse one rule token, e.g.
    [burn:service.errors_total/service.requests_total:5m,1h:2%] or
    [hot=over:service.conn_queue_depth:100:30s]. A [NAME=] prefix names
    the rule; the default name is the token itself. Durations take
    [ms]/[s]/[m]/[h] suffixes (a bare integer is ms). *)

val to_string : rule -> string
(** Canonical spec; [of_string (to_string r) = Ok r]. *)

val rules_of_string : string -> (rule list, string) result
(** Parse a rules file: one rule per line (or [;]-separated), [#] starts
    a comment, blank lines are skipped. Duplicate names are an error. *)

(** {1 The evaluator} *)

type state = Inactive | Pending | Firing | Resolved

val state_to_string : state -> string
val state_of_string : string -> state option

type status = {
  s_name : string;
  s_spec : string;  (** the rule's canonical spec *)
  s_state : state;
  s_since : int;  (** clock ms of the last state transition *)
  s_value : float;  (** last value the condition evaluated *)
  s_detail : string;  (** human-readable condition rendering *)
}

type t

val create : ?now:(unit -> int) -> ?audit:bool -> rule list -> t
(** An evaluator over [rules]. [now] is the clock in milliseconds
    (default: wall clock); inject {!Peace_sim.Engine} time for
    deterministic evaluation. [audit] (default [false]) additionally
    emits every state transition to the installed audit ledger as a
    [kind="alert"] record. Thread-safe: {!observe} may run on any domain
    while {!eval} runs on another. *)

val rules : t -> rule list

val observe : t -> kind:string -> (string * string) list -> unit
(** Feed one audit event [(kind, attrs)] to the stream detectors,
    stamped with the evaluator clock, read under the evaluator's lock so
    each window stays in time order. Only [access_reject] and
    [revocation_update] events take that lock; other kinds are ignored.
    An event costs O(1), amortised over its window. *)

val install_tap : t -> unit
(** Register {!observe} as the process-wide {!Audit.set_tap}, so every
    [Audit.emit] feeds this evaluator. Call [Audit.set_tap None] (or
    {!uninstall_tap}) when done. *)

val uninstall_tap : unit -> unit

val eval : ?lookup:(string -> float option) -> t -> status list
(** Evaluate every rule once at the current clock, advance the state
    machines, publish [alerts.firing{rule="..."}] gauges and log/audit
    transitions, and return the statuses. [lookup] resolves metric
    names (default {!Registry.lookup}); pass a custom one to evaluate
    against recorded data. *)

val statuses : t -> status list
(** Current statuses without re-evaluating (what [/alerts] renders). *)

val firing : t -> status list
(** The subset of {!statuses} currently [Firing]. *)

val transitions : t -> (int * string * state) list
(** Every state transition so far as [(clock_ms, rule name, new state)],
    oldest first — the deterministic firing sequence the sim tests
    assert on. Bounded (oldest entries drop beyond 1024). *)

val to_json : ?state:state -> t -> string
(** The [/alerts] body: [{"alerts":[{...}]}], optionally filtered to one
    state. One line, no trailing newline. *)

(** {1 Offline replay} *)

val replay_timeline :
  ?audit:bool -> rule list -> string -> (t * status list, string) result
(** Evaluate [rules] against a recorded timeline (the JSONL written by
    [peace simulate --timeline] / [/series]): every
    [{"kind":"sample","series":...,"ts":...,"v":...}] line feeds a
    value store keyed by series name, and the rules are evaluated at
    each distinct timestamp with the evaluator clock pinned to it.
    Non-sample lines are ignored. Returns the evaluator (inspect
    {!transitions} for the firing sequence) and the final statuses.
    Metric names resolve by exact series name here, so rules must name
    recorded series. *)
