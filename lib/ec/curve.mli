(** Short Weierstrass elliptic curves y² = x³ + ax + b over a prime field.

    Group arithmetic in Jacobian coordinates over a Montgomery-domain field;
    used by ECDSA (router certificates, non-repudiation receipts in PEACE)
    and reused by tests as a reference group implementation. *)

open Peace_bigint

type t
(** A curve with precomputed field context. *)

type point
(** A point on a specific curve (including the point at infinity). Points
    are only meaningful with the curve that created them. *)

val make :
  name:string ->
  p:Bigint.t ->
  a:Bigint.t ->
  b:Bigint.t ->
  gx:Bigint.t ->
  gy:Bigint.t ->
  n:Bigint.t ->
  h:int ->
  t
(** Builds a curve from domain parameters: odd prime modulus [p],
    coefficients [a], [b], base point [(gx, gy)] of prime order [n],
    cofactor [h].
    @raise Invalid_argument if the base point is not on the curve. *)

val name : t -> string
val order : t -> Bigint.t
(** Order [n] of the base-point subgroup. *)

val cofactor : t -> int
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
(** Scalar multiplication; the scalar is reduced modulo the group order. *)

val mul_base : t -> Bigint.t -> point
(** [mul_base c k] is [k·G]. *)

val equal : t -> point -> point -> bool
val on_curve : t -> point -> bool

val encode : t -> ?compress:bool -> point -> string
(** SEC 1 encoding: [0x00] for infinity, [0x04 ‖ x ‖ y] uncompressed
    (default), [0x02/0x03 ‖ x] compressed. *)

val decode : t -> string -> point option
(** Parses and validates a SEC 1 encoding. [None] on malformed input or a
    point not on the curve. *)

val byte_size : t -> int
(** Bytes needed for one field element. *)
