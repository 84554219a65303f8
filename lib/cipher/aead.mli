(** Authenticated encryption with associated data.

    ChaCha20 for confidentiality with an HMAC-SHA256 tag over
    [nonce ‖ aad ‖ ciphertext] (encrypt-then-MAC). Encryption and MAC keys
    are derived from the caller's key with HKDF, so a single 32-byte session
    key — e.g. the Diffie–Hellman secret PEACE establishes — is enough.

    This instantiates the paper's abstract [E_K(·)] in messages (M.3) and
    (M̃.3). *)

val nonce_size : int
(** 12. *)

val tag_size : int
(** 32. *)

val encrypt : key:string -> nonce:string -> ?aad:string -> string -> string
(** [encrypt ~key ~nonce ~aad plaintext] is [ciphertext ‖ tag]. A
    (key, nonce) pair must never be reused across messages. *)

val decrypt :
  key:string -> nonce:string -> ?aad:string -> string -> string option
(** Verifies the tag in constant time, then decrypts. [None] on any
    authentication failure. *)
