(** Modular arithmetic helpers over [Bigint].

    All moduli must be positive. Results are canonical representatives in
    [\[0, m)]. Square roots are taken in the Montgomery domain, by
    {!Mont.sqrt}. *)

val add : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
(** [add a b m] is [(a + b) mod m]. *)

val sub : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
val mul : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t

val powm : Bigint.t -> Bigint.t -> Bigint.t -> Bigint.t
(** [powm b e m] is [b{^e} mod m] for [e >= 0] and odd [m], by
    {!Mont.pow}; [0] when [m = 1].
    @raise Invalid_argument if [m] is even, as {!Mont.create} does. *)

val invert : Bigint.t -> Bigint.t -> Bigint.t
(** {!Bigint.invert}: the [x] in [\[0, m)] with [a*x = 1 (mod m)].
    @raise Division_by_zero if no inverse exists. *)
