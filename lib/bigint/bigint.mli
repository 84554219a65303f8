(** Arbitrary-precision signed integers.

    Pure-OCaml replacement for zarith inside the sealed build environment.
    Magnitudes are little-endian vectors of 30-bit limbs; all operations are
    total over the advertised domains and raise [Division_by_zero] or
    [Invalid_argument] otherwise.

    This module is the arithmetic substrate for every cryptographic component
    of PEACE (fields, curves, pairings, RSA, ECDSA). *)

type t
(** An arbitrary-precision integer. Structurally immutable. *)

val zero : t
val one : t
val two : t
val minus_one : t

(** {1 Conversions} *)

val of_int : int -> t

val to_int : t -> int
(** [to_int x] is [x] as a native integer.
    @raise Failure if [x] does not fit. *)

val of_string : string -> t
(** Parses an optionally signed decimal literal, or hexadecimal with a
    ["0x"] prefix. Underscores are permitted as separators.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal rendering, with a leading ['-'] when negative. *)

val of_hex : string -> t
(** Parses an unsigned hexadecimal string (no prefix). *)

val to_hex : t -> string
(** Lower-case hexadecimal rendering of the magnitude; ["-"]-prefixed when
    negative; ["0"] for zero. *)

val of_bytes_be : string -> t
(** Interprets a big-endian byte string as a non-negative integer. *)

val to_bytes_be : ?width:int -> t -> string
(** [to_bytes_be ~width x] is the big-endian encoding of non-negative [x],
    left-padded with zero bytes to [width] when given.
    @raise Invalid_argument if [x] is negative or does not fit in [width]. *)

(** {1 Comparisons} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val is_odd : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], truncated toward zero, so
    [r] carries the sign of [a]. @raise Division_by_zero when [b = 0]. *)

val div : t -> t -> t
val rem : t -> t -> t

val ediv_rem : t -> t -> t * t
(** Euclidean division: the remainder is always in [\[0, |b|)]. *)

val erem : t -> t -> t
(** Euclidean remainder, always non-negative. *)

val mul_int : t -> int -> t
val add_int : t -> int -> t

val gcd : t -> t -> t
(** Greatest common divisor of the magnitudes; [gcd 0 0 = 0]. *)

val invert : t -> t -> t
(** [invert a m] is the [x] in [\[0, m)] with [a*x = 1 (mod m)], by
    Lehmer's extended Euclid on 30-bit limbs (Knuth, TAOCP vol. 2, §4.5.2,
    Algorithm L): it simulates single-limb quotients on the remainders'
    leading 30 bits, applies each run of them to both remainders in one
    pass, and takes a full division where the simulation makes no
    progress. The one extended Euclid, under {!Modular.invert} and
    {!Mont.inv}. Its working remainders and coefficients live in four
    buffers one limb wider than [m].
    @raise Division_by_zero if [a ≡ 0] or no inverse exists.
    @raise Invalid_argument if [m <= 0]. *)

(** {1 Bit operations}

    Defined on non-negative arguments only; raise [Invalid_argument]
    otherwise. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val logor : t -> t -> t
val logxor : t -> t -> t

val testbit : t -> int -> bool
(** [testbit x i] is bit [i] (zero-indexed from the least-significant bit)
    of non-negative [x]. *)

val num_bits : t -> int
(** Number of significant bits of the magnitude; [num_bits zero = 0]. *)

(** {1 Randomness}

    Generators are parameterised by a byte source so callers choose between
    a deterministic DRBG (tests, protocols) and OS entropy. *)

val random_bits : (int -> string) -> int -> t
(** [random_bits rng n] draws a uniform integer in [\[0, 2{^n})] using
    [rng k], which must return [k] independent uniform bytes. *)

val random_below : (int -> string) -> t -> t
(** [random_below rng bound] draws uniformly from [\[0, bound)] by rejection
    sampling. @raise Invalid_argument if [bound <= 0]. *)

val random_range : (int -> string) -> t -> t -> t
(** [random_range rng lo hi] draws uniformly from [\[lo, hi)]. *)

(** {1 Miscellanea} *)

val pp : Format.formatter -> t -> unit

(**/**)

(** Internal: raw limb access for sibling modules ([Mont], [Modular]).
    Not part of the stable API. *)
module Internal : sig
  val limb_bits : int
  val limb_mask : int

  val magnitude : t -> int array
  (** Little-endian normalized limbs of [abs x] (shared, do not mutate). *)

  val of_magnitude : int array -> t
  (** Takes ownership of a (possibly unnormalized) non-negative limb
      vector. *)
end
