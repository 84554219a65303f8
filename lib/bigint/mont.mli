(** Montgomery-domain modular arithmetic over a fixed odd modulus.

    A [ctx] precomputes everything needed for constant-shape fused CIOS
    multiplication on 30-bit limbs. Elements ([elt]) are fixed-width limb
    vectors in Montgomery representation; they are only meaningful relative
    to the context that created them.

    This is the hot inner loop of the pairing, ECDSA and RSA layers. The
    limb width and mask are literals in this module, checked against
    {!Bigint}'s when it is initialised, so that the product, {!add} and
    {!sub} shift and mask by immediates under every build profile. *)

type ctx
(** Precomputed state for one odd modulus. *)

type elt
(** A residue in Montgomery form. Treat as immutable. *)

val create : Bigint.t -> ctx
(** [create m] builds a context for odd modulus [m > 2].
    @raise Invalid_argument if [m] is even or too small. *)

val modulus : ctx -> Bigint.t
val num_limbs : ctx -> int

val of_bigint : ctx -> Bigint.t -> elt
(** Reduces an arbitrary integer (negative allowed) into the field and
    converts to Montgomery form. *)

val to_bigint : ctx -> elt -> Bigint.t
(** Canonical representative in [\[0, m)]. *)

val zero : ctx -> elt
val one : ctx -> elt
val add : ctx -> elt -> elt -> elt
val sub : ctx -> elt -> elt -> elt
val neg : ctx -> elt -> elt
val mul : ctx -> elt -> elt -> elt
(** Allocates only its result.
    @raise Invalid_argument if an operand's width is not the context's,
    as when it was made by a context for a different modulus. *)

val sqr : ctx -> elt -> elt
(** [sqr ctx a = mul ctx a a]. *)

val equal : ctx -> elt -> elt -> bool
val is_zero : ctx -> elt -> bool

val chain :
  one:'a -> mul:('a -> 'a -> 'a) -> sqr:('a -> 'a) -> 'a -> Bigint.t -> 'a
(** [chain ~one ~mul ~sqr b e] is [b{^e}] for [e >= 0] in the monoid of
    [one], [mul] and [sqr]: the one exponentiation chain, under {!pow} and
    [Fq2.pow]. Its fixed window is 4 bits wide for exponents of 48 bits
    and more, with a table of 14 products; below that it is 1 bit wide, a
    square-and-multiply ladder with no table.
    @raise Invalid_argument if [e < 0]. *)

val pow : ctx -> elt -> Bigint.t -> elt
(** [pow ctx b e] is {!chain} on the context's product. *)

val sqrt : ctx -> elt -> elt option
(** [sqrt ctx a] is r = a{^(m+1)/4} when r² = a: the square root for a
    prime modulus m ≡ 3 (mod 4), [None] when a is not a square. The
    exponent is computed once, by {!create}.
    @raise Invalid_argument unless m ≡ 3 (mod 4). *)

val inv : ctx -> elt -> elt
(** Multiplicative inverse, by {!Bigint.invert} (Lehmer's extended Euclid)
    on the canonical representative, and two products to leave and
    re-enter Montgomery form. @raise Division_by_zero if the element is
    not invertible (shares a factor with the modulus). *)

val inv_all : ctx -> elt array -> elt array
(** The inverse of every element, with one {!inv} and 3(n − 1)
    multiplications (Montgomery's trick).
    @raise Division_by_zero if any element is not invertible. *)

val of_int : ctx -> int -> elt
