(** The quadratic extension F_p² = F_p[i]/(i² + 1).

    Requires p ≡ 3 (mod 4) so that −1 is a non-residue. Elements are pairs
    (re, im) of Montgomery-form F_p residues; the target group GT of the
    modified Tate pairing lives in this field. *)

open Peace_bigint

type elt = { re : Mont.elt; im : Mont.elt }

val zero : Mont.ctx -> elt
val one : Mont.ctx -> elt
val of_fp : Mont.elt -> Mont.elt -> elt
(** [of_fp re im] is re + im·i. *)

val add : Mont.ctx -> elt -> elt -> elt
val sub : Mont.ctx -> elt -> elt -> elt
val neg : Mont.ctx -> elt -> elt
val mul : Mont.ctx -> elt -> elt -> elt
val sqr : Mont.ctx -> elt -> elt

val conj : Mont.ctx -> elt -> elt
(** Complex conjugation, which is the p-power Frobenius on F_p². *)

val inv : Mont.ctx -> elt -> elt
(** (a − bi)/(a² + b²), with one F_p inversion. An element of norm 1, as
    every element of GT is, has its conjugate for inverse.
    @raise Division_by_zero on zero. *)

val pow : Mont.ctx -> elt -> Bigint.t -> elt
(** {!Peace_bigint.Mont.chain} on the F_p² product; the exponent must be
    non-negative. *)

val equal : Mont.ctx -> elt -> elt -> bool
val is_zero : Mont.ctx -> elt -> bool
val is_one : Mont.ctx -> elt -> bool

val of_bigints : Mont.ctx -> Bigint.t -> Bigint.t -> elt

val encode : Mont.ctx -> elt -> string
(** Fixed-width big-endian [re ‖ im]. *)

val decode : Mont.ctx -> string -> elt option
