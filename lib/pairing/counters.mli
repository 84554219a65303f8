(** Operation counters for the paper's computational-cost analysis.

    Section V-C of the paper counts "exponentiations" (scalar
    multiplications in G1, exponentiations in GT) and "bilinear map
    computations" per signature operation. These global counters let the
    benchmark harness measure those counts on the real code path instead of
    trusting the analysis (experiment E2). *)

type snapshot = {
  pairings : int;
      (** bilinear map evaluations: one per pair of a product, however it
          is computed; building a Miller-line table counts nothing *)
  g1_mul : int;
      (** scalar multiplications in G1; a two-term product ([G1.mul2],
          one doubling chain) counts as two, so the paper's
          multi-exponentiations show as their terms *)
  gt_exp : int;        (** exponentiations in GT *)
  hash_to_g1 : int;    (** hash-to-curve evaluations (H₀) *)
}

val reset : unit -> unit
val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] is the per-field difference. *)

val total_exponentiations : snapshot -> int
(** [g1_mul + gt_exp] — the paper's aggregate "exponentiations". *)

val pp : Format.formatter -> snapshot -> unit

(**/**)

(* Internal: incremented by the pairing and group-signature layers. *)
val count_pairing : unit -> unit
val count_g1_mul : unit -> unit
val count_gt_exp : unit -> unit
val count_hash_to_g1 : unit -> unit
