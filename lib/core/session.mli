(** Established communication sessions.

    After a successful three-way handshake both sides hold the
    Diffie–Hellman secret K = g^{r_a·r_b} in G1. A session derives
    direction-separated symmetric keys from it and provides the paper's
    "highly efficient MAC-based approach" (§V-C) for all subsequent data:
    authenticated encryption with monotonically increasing sequence numbers
    as a replay defence. *)

open Peace_bigint
open Peace_pairing

type role = Initiator | Responder

type t

val id : t -> string
(** The session identifier derived from the DH shares (g^{r_a}, g^{r_b}) —
    the paper's fresh-random-pair identifier, unlinkable across sessions. *)

val short_id : string -> string
(** How the audit ledger records a session identifier: the hex of its
    first 8 bytes, enough to join against the access log without bloating
    every record. *)

val role : t -> role

val derive :
  Config.t -> role:role -> local_secret:Bigint.t -> remote_share:G1.point ->
  initiator_share:G1.point -> responder_share:G1.point -> t
(** Computes K = remote_share · local_secret and derives send/receive keys
    bound to both DH shares. The two endpoints (with opposite [role]s)
    derive matching sessions. *)

val matches : t -> t -> bool
(** Same id, and each side's send key is the other's receive key — the
    key-agreement success criterion. *)

val seal : t -> string -> string
(** Authenticated encryption of a data message; bumps the send counter. *)

val open_ : t -> string -> string option
(** Verifies, decrypts, and enforces strictly increasing receive counters;
    [None] on forgery, tampering or replay. *)

val rekey : t -> unit
(** Forward-secrecy ratchet: replaces both directional keys with their
    one-way images and resets the message counters. Both endpoints must
    ratchet at the same agreed point (e.g. every N messages); afterwards,
    compromise of the new keys reveals nothing about earlier traffic. *)

val generation : t -> int
(** Number of ratchets performed. *)
