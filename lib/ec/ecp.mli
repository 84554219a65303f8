(** A short-Weierstrass curve y² = x³ + ax + b over F_p: its equation,
    its group law and its scalar multiplication. One engine for two curve
    shapes: ECDSA's secp curves (a = −3, {!Curve}) and the type-A pairing
    group G1 (a = 1, b = 0), and the steps of the pairing's Miller loop.

    Points are affine in Montgomery form. Scalar multiplication runs a
    signed-window (wNAF) chain in Jacobian coordinates over affine odd
    multiples; {!mul2} interleaves two chains in one (Straus). The Miller
    loop walks the same Jacobian doubling and mixed addition
    ({!jac_double}, {!jac_add_affine}) and hears of each line they draw.
    Each shape has one Jacobian doubling. The b = 0 one reads Y² off the
    curve equation, so the group law and scalar multiplication take only
    points on the curve: every point built by {!of_affine} or {!lift}, or
    decoded by {!Curve.decode} or G1's codec, is one. Nothing is counted
    here: each curve counts its own operations. *)

open Peace_bigint

type t
(** The field context and the coefficients a and b. *)

type point = Infinity | Affine of { x : Mont.elt; y : Mont.elt }
(** Only meaningful with the {!t} whose field made the coordinates. *)

val make : Mont.ctx -> a:Bigint.t -> b:Bigint.t -> t
(** @raise Invalid_argument unless a ≡ −3, or a ≡ 1 and b ≡ 0 (mod p). *)

val on_curve : t -> point -> bool
(** y² = x³ + ax + b; true for the point at infinity. *)

val of_affine : t -> x:Bigint.t -> y:Bigint.t -> point option
(** The point (x, y), the coordinates reduced modulo p; [None] when it is
    not on the curve. *)

val lift : t -> Mont.elt -> Mont.elt option
(** [lift c x] is {!Mont.sqrt} of x³ + ax + b: a y with (x, y) on the
    curve, or [None] when there is none.
    @raise Invalid_argument unless p ≡ 3 (mod 4). *)

val is_infinity : point -> bool
val to_affine : t -> point -> (Bigint.t * Bigint.t) option
val neg : t -> point -> point
val equal : t -> point -> point -> bool
val double : t -> point -> point
val add : t -> point -> point -> point

val add_batch : t -> point -> point array -> point array
(** [add_batch c p qs] is [add c p qs.(k)] at every k, with one field
    inversion for the whole array (Montgomery's trick) instead of one per
    sum. *)

val mul : t -> Bigint.t -> point -> point
(** k·P for k ≥ 0, the scalar used as-is (not reduced).
    @raise Invalid_argument on a negative scalar. *)

val mul2 : t -> Bigint.t -> point -> Bigint.t -> point -> point
(** [mul2 c a p b q] is a·P + b·Q in one doubling chain.
    @raise Invalid_argument on a negative scalar. *)

val mul_is_infinity : t -> Bigint.t -> Mont.elt -> Mont.elt -> bool
(** [mul_is_infinity c k x y] is k·(x, y) = O, read off the Jacobian
    result without an inversion back to affine. *)

(** {1 Jacobian steps} *)

type jac = Jinf | Jac of { jx : Mont.elt; jy : Mont.elt; jz : Mont.elt; jzz : Mont.elt }
(** (X, Y, Z) stands for the affine point (X/Z², Y/Z³); [Jinf] is O.
    [jzz] must be Z²: each step squares the Z it produces once and keeps
    the square, which the next step reads instead of squaring Z again. *)

type line = Mont.elt -> Mont.elt -> Mont.elt -> Mont.elt -> Mont.elt -> unit
(** [line n x3 y3 z3 zz3] is told of a step that draws a line: the line's
    slope is n / Z₃, the step produces (X₃, Y₃, Z₃), and zz3 = Z₃². *)

val jac_of_affine : Mont.ctx -> Mont.elt -> Mont.elt -> jac
(** [jac_of_affine fp x y] is (x, y, 1), with Z² = 1. *)

val jac_double : t -> line -> jac -> jac
(** 2T for T on the curve, with Z₃ = 2YZ. Draws the tangent at T, with
    n = 3X² + a·Z⁴; draws nothing when T = O or Y = 0, where the tangent
    is vertical. *)

val jac_add_affine : t -> line -> jac -> Mont.elt -> Mont.elt -> jac
(** T + (x, y) for an affine (x, y). Draws the chord, with n = S₂ − S₁, or
    the tangent when T = (x, y), as {!jac_double}; draws nothing for
    O + (x, y) or T = −(x, y), where the line is vertical. *)
