(** The pairing group G1: the order-q subgroup of E(F_p), E : y² = x³ + x.

    In this symmetric (type-A) instantiation G2 = G1 and the isomorphism ψ
    of the paper is the identity. Scalar multiplications are counted by
    {!Counters} as the paper's "exponentiations". *)

open Peace_bigint

type point
(** An affine point or the point at infinity. Only meaningful together with
    the {!Params.t} that created it. *)

val infinity : point
val is_infinity : point -> bool
val generator : Params.t -> point

val of_affine : Params.t -> x:Bigint.t -> y:Bigint.t -> point
(** @raise Invalid_argument if the coordinates are not on the curve. *)

val to_affine : Params.t -> point -> (Bigint.t * Bigint.t) option

val coords : point -> (Mont.elt * Mont.elt) option
(** Montgomery-form coordinates, for the Miller loop. *)

val neg : Params.t -> point -> point
val add : Params.t -> point -> point -> point

val add_batch : Params.t -> point -> point array -> point array
(** [add_batch params p qs] is [add params p qs.(k)] at every k, sharing
    one field inversion across the array. *)

val double : Params.t -> point -> point

val mul : Params.t -> Bigint.t -> point -> point
(** Scalar multiplication by a signed-window (wNAF) chain over affine odd
    multiples. The scalar is used as-is (not reduced), so this also serves
    cofactor clearing. Counted as one G1 exponentiation.
    @raise Invalid_argument on a negative scalar. *)

val mul2 : Params.t -> Bigint.t -> point -> Bigint.t -> point -> point
(** [mul2 params a p b q] is a·P + b·Q in one doubling chain (Straus's
    interleaving of the two wNAF chains), the paper's two-term
    multi-exponentiation. Counted as two G1 exponentiations.
    @raise Invalid_argument on a negative scalar. *)

val equal : Params.t -> point -> point -> bool
val on_curve : Params.t -> point -> bool

val in_subgroup : Params.t -> point -> bool
(** [q]·P = O. *)

val hash_to_point : Params.t -> string -> point
(** Deterministic hash onto the order-q subgroup (try-and-increment on x,
    then cofactor clearing). Never returns infinity. Instantiates the
    paper's H₀ random oracle. *)

val random : Params.t -> (int -> string) -> point
(** A uniformly random non-identity subgroup element. *)

val encode : Params.t -> point -> string
(** Compressed encoding: parity byte ‖ x, {!Params.group_element_bytes}
    bytes; [0x00 ‖ 0…0] encodes infinity. *)

val decode : Params.t -> string -> point option
(** Rejects encodings that are off-curve or outside the order-q subgroup
    (the type-A curve has a large cofactor, unlike the paper's prime-order
    MNT G1 — decoding is the trust boundary). *)

val pp : Params.t -> Format.formatter -> point -> unit
