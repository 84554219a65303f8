(** Probabilistic primality testing and prime generation. *)

val is_probable_prime : Bigint.t -> bool
(** Miller–Rabin with 32 pseudo-random bases after trial division by the
    primes below 1000. Deterministic witnesses are used for inputs below
    3,215,031,751. *)

val random_prime : (int -> string) -> bits:int -> Bigint.t
(** [random_prime rng ~bits] draws uniform odd candidates with the top bit
    set until one passes [is_probable_prime]. Requires [bits >= 2]. *)

val next_prime : Bigint.t -> Bigint.t
(** Smallest probable prime strictly greater than the argument. *)
