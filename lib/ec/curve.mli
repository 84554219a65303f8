(** Short Weierstrass elliptic curves y² = x³ + ax + b (a = −3 or 1) over a
    prime field: domain parameters and the uncompressed SEC 1 codec. The
    equation, the group law and the scalar multiplication are {!Ecp}'s,
    shared with the pairing group G1. Used by ECDSA (router certificates,
    non-repudiation receipts in PEACE). *)

open Peace_bigint

type t
(** A curve with precomputed field context. *)

type point
(** An affine point on a specific curve, or the point at infinity. Points
    are only meaningful with the curve that created them. *)

val make :
  name:string ->
  p:Bigint.t ->
  a:Bigint.t ->
  b:Bigint.t ->
  gx:Bigint.t ->
  gy:Bigint.t ->
  n:Bigint.t ->
  t
(** Builds a curve from domain parameters: odd prime modulus [p],
    coefficients [a], [b], base point [(gx, gy)] of prime order [n].
    @raise Invalid_argument if [a] is not −3 or 1 modulo [p], or if the
    base point is not on the curve. *)

val name : t -> string
val order : t -> Bigint.t
(** Order [n] of the base-point subgroup. *)

val base : t -> point
val infinity : t -> point
val is_infinity : point -> bool

val point : t -> x:Bigint.t -> y:Bigint.t -> point
(** Constructs and validates an affine point.
    @raise Invalid_argument if [(x, y)] does not satisfy the curve
    equation. *)

val to_affine : t -> point -> (Bigint.t * Bigint.t) option
(** [None] for the point at infinity. *)

val neg : t -> point -> point
val add : t -> point -> point -> point
val double : t -> point -> point

val mul : t -> Bigint.t -> point -> point
(** Scalar multiplication by a signed-window (wNAF) chain; the scalar is
    reduced modulo the group order. Counted as one [ec.scalar_mul]. *)

val mul2 : t -> Bigint.t -> point -> Bigint.t -> point -> point
(** [mul2 c j p k q] is j·P + k·Q in one doubling chain (Straus's
    interleaving), both scalars reduced modulo the group order. Counted as
    two [ec.scalar_mul]. *)

val mul_base : t -> Bigint.t -> point
(** [mul_base c k] is [k·G]. *)

val equal : t -> point -> point -> bool
val on_curve : t -> point -> bool

val encode : t -> point -> string
(** Uncompressed SEC 1 encoding: [0x00] for infinity, [0x04 ‖ x ‖ y]
    otherwise. *)

val decode : t -> string -> point option
(** Parses and validates an {!encode} output. [None] on any other input
    (a compressed [0x02]/[0x03] form included), a coordinate not below p,
    or a point not on the curve. *)

val byte_size : t -> int
(** Bytes needed for one field element. *)
