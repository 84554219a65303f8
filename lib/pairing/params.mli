(** Type-A supersingular pairing parameters.

    The curve is E : y² = x³ + x over F_p with p ≡ 3 (mod 4), which is
    supersingular with #E(F_p) = p + 1 and embedding degree 2. Parameters
    fix a prime subgroup order q with p + 1 = q·h.

    This substitutes for the MNT curves of the paper (see DESIGN.md): every
    protocol equation of PEACE holds verbatim in this symmetric setting with
    ψ = identity, and the modified Tate pairing ê(P,Q) = e(P, φ(Q)) with
    distortion map φ(x,y) = (−x, iy) is non-degenerate on the q-torsion. *)

open Peace_bigint

type t = {
  name : string;
  p : Bigint.t;    (** field order, ≡ 3 (mod 4) *)
  q : Bigint.t;    (** prime subgroup order, q | p+1 *)
  h : Bigint.t;    (** cofactor, p + 1 = q·h *)
  fp : Mont.ctx;   (** Montgomery context for F_p *)
  ec : Peace_ec.Ecp.t; (** E's equation and group law (a = 1, b = 0) *)
  gx : Bigint.t;   (** generator x *)
  gy : Bigint.t;   (** generator y *)
}

val tiny : t Lazy.t
(** 80-bit q / 88-bit p. Fast; for tests and high-repetition sweeps only. *)

val paper_size : t Lazy.t
(** 170-bit q over a 175-bit field: reproduces the PAPER's group-element
    and scalar byte sizes (its MNT-171 instantiation) for the E1 size
    experiment. Not security-matched — the 350-bit GT field is weak; use
    [light] for security-relevant timing. *)

val light : t Lazy.t
(** 160-bit q / 512-bit p — matching the security level the paper targets
    (group order comparable to 160-bit ECC, field comparable to
    RSA-1024). *)

val generate : (int -> string) -> qbits:int -> pbits:int -> name:string -> t
(** Generates fresh parameters: draws a [qbits]-bit prime q, then scans
    cofactors h ≡ 0 (mod 4) of the right size until p = q·h − 1 is a
    [pbits]-bit prime. Intended for the CLI and for tests of the generator
    itself; the presets above are pre-validated. *)

val validate : t -> (unit, string) result
(** Re-checks all structural invariants (primality, p ≡ 3 mod 4, q·h = p+1,
    generator on curve with order q). *)

val affine_mul :
  Bigint.t -> Bigint.t -> (Bigint.t * Bigint.t) option -> (Bigint.t * Bigint.t) option
(** [affine_mul p k pt] is k·pt on y² = x³ + x over F_p by textbook
    double-and-add on integer coordinates ([None] is the point at
    infinity). Parameter generation and validation use it; tests use it as
    the slow reference for [G1.mul]. *)

val group_element_bytes : t -> int
(** Bytes per compressed G1 element. *)

val to_text : t -> string
(** Line-oriented textual encoding (name, p, q, h, gx, gy in hex) for
    storage by the CLI. *)

val of_text : string -> (t, string) result
(** Parses {!to_text} output and re-validates the parameters. *)
