(** SHA-256 (FIPS 180-4).

    Incremental and one-shot interfaces. All strings are raw bytes. *)

type ctx
(** Streaming hash state (mutable). *)

val init : unit -> ctx
val update : ctx -> string -> unit
val finalize : ctx -> string
(** Returns the 32-byte digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot hash: 32-byte digest of the input. *)

val digest_size : int
(** 32. *)

val block_size : int
(** 64. *)

val to_hex : string -> string
(** Renders a raw byte string in lower-case hexadecimal (any input). *)

val of_hex : string -> string option
(** The bytes of an even number of hexadecimal digits, either case; [None]
    on anything else (a sign, a [0x] prefix, a separator or whitespace). *)
