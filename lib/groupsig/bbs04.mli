(** The Boneh–Boyen–Shacham (CRYPTO'04) group signature — the
    design-alternative baseline.

    PEACE chose the verifier-local-revocation scheme of BS04: verification
    pays a per-token pairing scan over the URL, but nobody holds a master
    opening key. The classic alternative is BBS04, where signatures carry a
    linear encryption of the signer's A under an {e opener} key: opening is
    one double-exponentiation (no grt scan) and verification never depends
    on a revocation list — but whoever holds the opener key can deanonymise
    {e every} signature, which collides with PEACE's privacy-against-NO
    requirement (§III-C). The A6 ablation quantifies the trade-off.

    A signature is (T1, T2, T3, c, s_α, s_β, s_x, s_δ1, s_δ2):
    three G1 elements and six scalars. *)

open Peace_bigint
open Peace_pairing

type gpk = {
  params : Params.t;
  g1 : G1.point;
  g2 : G1.point;
  h : G1.point;
  h_lines : Pairing.lines;  (** h's Miller lines, built once by [setup] *)
  u : G1.point;  (** u^ξ1 = h *)
  v : G1.point;  (** v^ξ2 = h *)
  w : G1.point;  (** γ·g2 *)
  e_g1_g2 : Pairing.Gt.elt;
  e_h_w : Pairing.Gt.elt;
  e_h_g2 : Pairing.Gt.elt;
}

type opener = { xi1 : Bigint.t; xi2 : Bigint.t }
type issuer = { gpk : gpk; gamma : Bigint.t }
type gsk = { a : G1.point; x : Bigint.t; e_a_g2 : Pairing.Gt.elt }

type signature = {
  t1 : G1.point;
  t2 : G1.point;
  t3 : G1.point;
  c : Bigint.t;
  s_alpha : Bigint.t;
  s_beta : Bigint.t;
  s_x : Bigint.t;
  s_delta1 : Bigint.t;
  s_delta2 : Bigint.t;
}

val setup : Params.t -> (int -> string) -> issuer * opener
(** The issuer (γ) and opener (ξ1, ξ2) roles are separable; in PEACE terms
    the opener key would have to sit with someone — that is the rub. *)

val issue : issuer -> (int -> string) -> gsk
val sign : gpk -> gsk -> rng:(int -> string) -> msg:string -> signature
val verify : gpk -> msg:string -> signature -> bool

val open_signature : gpk -> opener -> signature -> G1.point
(** Decrypts the linear encryption: A = T3 − ξ1·T1 − ξ2·T2. O(1) — no
    token scan — but requires the all-powerful opener key. Returns the
    signer's A, to be matched against the member registry. Run {!verify}
    first: opening an invalid signature yields a meaningless point. *)

val signature_size : gpk -> int
(** 3 G1 elements + 6 scalars. *)

val signature_to_bytes : gpk -> signature -> string
