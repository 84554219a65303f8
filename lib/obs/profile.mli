(** Span-tree profiler over the {!Trace} event stream.

    Folds begin/end events into a call tree keyed by span-name path and,
    per path, accumulates the call count, total time, and the delta of a
    fixed set of registry counters between begin and end — the paper's
    §V-C cost vocabulary (pairings, exponentiations, scalar
    multiplications) attributed to the code path that spent them:

    {v
    groupsig.verify      n=1  total 3.21 ms  self 0.42 ms  pairing.ops=6 ...
      groupsig.proof_check ...
    v}

    One mutex guards the profile's tables, so it is safe to feed from
    several domains, such as the authority's connection workers; a span
    may end on another domain than the one that began it. Op attribution
    reads the process-global counters: exact on one domain, approximate
    while several domains run concurrently. *)

type t

val default_ops : string list
(** The counters attributed per span: [pairing.ops],
    [pairing.exp_g1], [pairing.exp_gt], [pairing.hash_to_g1],
    [ec.scalar_mul]. *)

val create : unit -> t
(** An empty profile attributing {!default_ops}. *)

val collector : t -> Trace.event -> unit
(** The ingestion function: install with
    [Trace.set_collector (Some (Profile.collector p))], alone or composed
    with other collectors. *)

val dropped : t -> int
(** End events that matched no open begin (span begun before the
    collector was installed, or already closed). *)

(** {1 Reading the tree} *)

type node = {
  name : string;  (** span name (last path element) *)
  path : string list;  (** root-first name path *)
  count : int;
  total_ns : int;
  self_ns : int;  (** total minus the children's totals, clamped at 0 *)
  ops : (string * int) list;  (** attributed counter deltas, whole span *)
  self_ops : (string * int) list;  (** ops minus the children's, clamped *)
  children : node list;  (** sorted by name *)
}

val roots : t -> node list
(** The call tree, roots sorted by name. Time units are whatever
    the span timestamps used (wall nanoseconds, or simulated time for
    handle-based sim spans). *)

val report : Format.formatter -> t -> unit
(** Human-readable tree: count, total/self ms, and the non-zero attributed
    ops per path ([peace stats --profile] prints this). *)
