(** ECDSA signatures (SEC 1 / FIPS 186-4) with deterministic nonces.

    Nonce generation follows the RFC 6979 construction (HMAC-DRBG keyed by
    the private key and message hash), so signing needs no external
    entropy — important inside deterministic protocol simulations.

    The message is hashed with SHA-256 and truncated to the group-order
    width, which instantiates the paper's "ECDSA-160" when used with
    {!Curves.secp160r1}. *)

open Peace_bigint

type keypair = { d : Bigint.t; q : Curve.point }
(** Private scalar [d] and public point [q = d·G]. *)

type signature = { r : Bigint.t; s : Bigint.t }

val generate : Curve.t -> (int -> string) -> keypair
(** [generate curve rng] draws [d] uniformly from [\[1, n)]. *)

val sign : Curve.t -> key:keypair -> string -> signature
(** Signs a message (hashed internally with SHA-256). *)

val verify : Curve.t -> public:Curve.point -> string -> signature -> bool
(** Verifies a signature over a message; total (never raises) on
    adversarial input. *)

val signature_to_bytes : Curve.t -> signature -> string
(** Fixed-width [r ‖ s] encoding (2 × group-order width). *)

val signature_of_bytes : Curve.t -> string -> signature option

val signature_size : Curve.t -> int
(** Size in bytes of {!signature_to_bytes} output. *)
