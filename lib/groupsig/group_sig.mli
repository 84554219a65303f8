(** Short group signatures with verifier-local revocation.

    Implements the Boneh–Shacham (CCS'04) VLR group signature and the PEACE
    variation of its key generation (Ren & Lou, ICDCS'08 §IV-A): a private
    key is an SDH tuple [(A, grp, x)] with

    {v A = g1^(1 / (γ + grp + x)) v}

    where [grp] identifies the holder's {e user group} and [x] the
    individual member. Setting [grp = 0] recovers vanilla BS04 — that is the
    ablation baseline.

    A signature is a proof of knowledge of such a tuple, bound to a message:
    [(r, T1, T2, c, s_α, s_x, s_δ)] — two G1 elements and five
    group-order-size scalars, exactly the paper's "1192 bits" shape.

    Revocation is verifier-local: the verifier checks each token
    [A ∈ URL] against [(T1, T2)] via the paper's Eq. 3, and the designated
    opener (the network operator, who holds all tokens) runs the same check
    over [grt] to attribute a signature to a user group. *)

open Peace_bigint
open Peace_pairing

(** How the signature bases (û, v̂) of Eq. 1 are derived. *)
type base_mode =
  | Per_message
      (** Fresh bases from H₀(gpk, msg, r) per signature — the default,
          full-privacy mode of the paper. Revocation checking costs two
          pairings per token. *)
  | Fixed_bases
      (** System-wide fixed bases: enables the paper's "far more efficient
          revocation check algorithm whose running time is independent of
          |URL|" (§V-C), at a privacy cost discussed there. *)

type gpk = {
  params : Params.t;
  g1 : G1.point;
  g2 : G1.point;  (** = ψ(g2) = g1's twin; in the symmetric setting g2 = g1 *)
  w : G1.point;  (** w = γ·g2 *)
  base_mode : base_mode;
  e_g1_g2 : Pairing.Gt.elt;  (** precomputed e(g1, g2) *)
  fixed_u : G1.point;  (** only meaningful under [Fixed_bases] *)
  fixed_v : G1.point;
  g2_lines : Pairing.lines;
      (** g2's Miller lines, built with the key; they give e(g1, g2), each
          key's e(A, g2), the signer's e(v̂, g2) and the verifier's
          ê(g2, ·) *)
  w_lines : Pairing.lines;  (** w's Miller lines, likewise *)
}

type gsk = {
  a : G1.point;  (** A = (γ + grp + x)⁻¹ · g1 *)
  grp : Bigint.t;  (** user-group secret grpᵢ (0 for vanilla BS04) *)
  x : Bigint.t;
  e_a_g2 : Pairing.Gt.elt;  (** precomputed e(A, g2) for fast signing *)
}

type issuer = { gpk : gpk; gamma : Bigint.t }
(** The group master state; in PEACE only the network operator holds γ. *)

type revocation_token = G1.point
(** grt[i,j] = A_{i,j}. *)

type signature = {
  r_nonce : string;  (** the scalar-width nonce r fed to H₀ *)
  t1 : G1.point;
  t2 : G1.point;
  c : Bigint.t;
  s_alpha : Bigint.t;
  s_x : Bigint.t;
  s_delta : Bigint.t;
}

type verify_result = Valid | Invalid_proof | Revoked

val equal_verify_result : verify_result -> verify_result -> bool
val pp_verify_result : Format.formatter -> verify_result -> unit

(** {1 Setup and key issue} *)

val setup : ?base_mode:base_mode -> Params.t -> (int -> string) -> issuer
(** Draws γ and builds the group public key. *)

val issue : issuer -> grp:Bigint.t -> (int -> string) -> gsk
(** Draws a fresh member secret x with γ + grp + x ≠ 0 (mod q) and builds
    the SDH tuple. *)

val issue_with_x : issuer -> grp:Bigint.t -> x:Bigint.t -> gsk option
(** Deterministic variant; [None] if γ + grp + x = 0 (mod q). *)

val token_of_gsk : gsk -> revocation_token
(** The revocation token corresponding to a key: its A component. *)

val assemble_gsk :
  gpk -> a:G1.point -> grp:Bigint.t -> x:Bigint.t -> gsk option
(** Rebuilds a private key from its three separately-delivered components
    (the PEACE user does this after collecting shares from the group
    manager and the TTP); validates the SDH relation, [None] if it does
    not hold. *)

val key_is_valid : gpk -> gsk -> bool
(** Checks the SDH relation e(A, w + (grp+x)·g2) = e(g1, g2). *)

(** {1 Sign / verify} *)

val sign : gpk -> gsk -> rng:(int -> string) -> msg:string -> signature

val verify :
  gpk -> ?url:revocation_token list -> msg:string -> signature -> verify_result
(** Full verification: proof check (Eq. 2) then verifier-local revocation
    scan over [url] (Eq. 3).

    The scan builds û's Miller lines and e(T1, v̂) once and forms every
    T2 − A in one batched addition ({!G1.add_batch}: one field inversion
    for the whole list). It then tests the tokens in order and stops at
    the first match. Each token costs one walk through û's lines and a
    power by the cofactor, with no inversion ({!Pairing.lines_equal}),
    and counts as one pairing, so a verify that scans the whole list
    counts 3 + |URL| pairings.

    Precondition: T1 and T2 lie in the order-q subgroup G_q. The check
    recomputes R̃2 as ê(g2, s_x·T2 − s_δ·v̂)·ê(w, c·T2 − s_α·v̂)·e(g1, g2)^{−c},
    which equals the paper's formula only because ê is bilinear and
    symmetric on G_q. {!signature_of_bytes} guarantees it ({!G1.decode}
    refuses points outside G_q) and signing always meets it; [verify] does
    not re-check it. A signature assembled in memory with an on-curve T1 or
    T2 outside G_q (as [G1.of_affine] can build) is outside this
    guarantee. *)

val is_signer : gpk -> msg:string -> signature -> revocation_token -> bool
(** The Eq. 3 test: does this token's key underlie the signature? Sound
    only on signatures whose proof has already been verified. *)

(** {1 Fast (|URL|-independent) revocation checking} *)

type fast_table
(** Precomputed pairings of revocation tokens against the fixed base û.
    Only usable with a [Fixed_bases] gpk. *)

val build_fast_table : gpk -> revocation_token list -> fast_table
val fast_table_size : fast_table -> int

val verify_fast : gpk -> fast_table -> msg:string -> signature -> verify_result
(** Proof check plus O(1) revocation lookup.
    @raise Invalid_argument on a [Per_message] gpk. *)

(** {1 Opening (audit)} *)

val open_signature :
  gpk -> grt:(revocation_token * 'a) list -> msg:string -> signature ->
  'a option
(** The opener's scan: returns the tag attached to the first token that
    matches the signature, after re-verifying the proof. In PEACE the tag
    is the user-group identity — opening reveals the group, not the
    member. *)

(** {1 Serialisation} *)

val signature_to_bytes : gpk -> signature -> string
val signature_of_bytes : gpk -> string -> signature option

val signature_size : gpk -> int
(** Measured size in bytes under these parameters. *)

val paper_signature_bits : int
(** The size the paper reports under its 170-bit MNT parameters: 1192. *)

(** {1 Key storage (textual, for the CLI)} *)

val gpk_to_text : gpk -> string
val gpk_of_text : string -> (gpk, string) result
(** Re-validates the embedded parameters and recomputes the cached
    pairing. *)

val issuer_to_text : issuer -> string
val issuer_of_text : string -> (issuer, string) result

val gsk_to_text : gpk -> gsk -> string
val gsk_of_text : gpk -> string -> (gsk, string) result
(** Rejects keys that fail the SDH validity check against [gpk]. *)

val token_to_text : gpk -> revocation_token -> string
val token_of_text : gpk -> string -> (revocation_token, string) result
