(** The modified Tate pairing ê : G1 × G1 → GT ⊂ F_p².

    ê(P, Q) = f_{q,P}(φ(Q))^{(p²−1)/q} with distortion map
    φ(x, y) = (−x, iy). It is bilinear, symmetric in distribution
    (ê(P,Q) = ê(Q,P)) and non-degenerate: ê(G, G) ≠ 1.

    Every evaluation bumps {!Counters}. *)

open Peace_bigint

module Gt : sig
  (** The target group: order-q subgroup of F_p²^*. *)

  type elt = Fq2.elt

  val one : Params.t -> elt
  val mul : Params.t -> elt -> elt -> elt

  val inv : Params.t -> elt -> elt
  (** The conjugate ({!Fq2.conj}), which is the inverse of an element of
      GT: q divides p + 1, so every x in GT has x·conj(x) = x{^p+1} = 1.
      Takes elements of GT only, such as pairing values and their products
      and powers; on any other element of F_p² it is not the inverse. *)

  val equal : Params.t -> elt -> elt -> bool
  val is_one : Params.t -> elt -> bool

  val pow : Params.t -> elt -> Bigint.t -> elt
  (** {!Fq2.pow}, counted as one GT exponentiation. A negative exponent
      conjugates the power of its magnitude, so, as for {!inv}, the base
      must lie in GT. *)

  val encode : Params.t -> elt -> string

  val decode : Params.t -> string -> elt option
  (** Validates field membership only; run {!in_subgroup} on values from
      untrusted sources. *)

  val in_subgroup : Params.t -> elt -> bool
  (** [elt^q = 1] — membership in the order-q target subgroup. Decoded
      GT elements from untrusted sources should pass this before use. *)
end

val tate : Params.t -> G1.point -> G1.point -> Gt.elt
(** [tate params p q] is ê(P, Q); [1] when either argument is infinity.
    Its Miller loop is the one walk over q's bits that {!lines_of} also
    takes, on G1's own Jacobian doubling and mixed addition
    ({!Peace_ec.Ecp.jac_double}, {!Peace_ec.Ecp.jac_add_affine}); it
    multiplies each line in at φ(Q) as the walk draws it. Counted as one
    pairing. *)

type lines
(** The Miller loop of a fixed first argument P, kept as the affine
    coefficients of its lines in preallocated arrays: one slope and one
    offset per step of the loop. Only meaningful together with the
    {!Params.t} that built it. *)

val lines_of : Params.t -> G1.point -> lines
(** [lines_of params p] takes P's Miller loop once, the walk {!tate}
    takes, stores each line instead of multiplying it in, and brings the
    lines to affine with one batched inversion. Costs about a Miller loop
    without its final exponentiation, so a table pays for itself from its
    second use (ablation A7); counts nothing. *)

val tate_lines : Params.t -> (lines * G1.point) list -> Gt.elt
(** [tate_lines params [(lines_of p1, q1); …]] is ∏ᵢ ê(pᵢ, qᵢ), equal to
    the product of {!tate}s: one squaring of the accumulator per bit for
    all pairs, four F_p products per line, one final exponentiation.
    Counted as one pairing per pair; a pair with an identity argument
    contributes 1. Group signatures use it for g2, w and the VLR base û;
    the BBS04 baseline for its h and each signature's T3. *)

val lines_equal : Params.t -> lines -> G1.point -> Gt.elt -> bool
(** [lines_equal params (lines_of p) q target] is
    [Gt.equal params (tate_lines params [ (lines_of p, q) ]) target]
    without the field inversion of the final exponentiation: with g the
    Miller value raised to the cofactor h, ê(P, Q) = conj(g)/g, so it tests
    conj(g) = target·g. Counted as one pairing. The revocation scan tests
    each token with it. *)

val tate_affine : Params.t -> G1.point -> G1.point -> Gt.elt
(** Reference implementation of {!tate} with an affine Miller loop (one
    field inversion per step) and its own step formulas. Slower; kept for
    cross-checking the Jacobian walk that {!tate} and {!lines_of} share,
    and for the A5 ablation. *)
