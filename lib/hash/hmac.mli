(** HMAC (RFC 2104) over SHA-256 and SHA-512, plus HKDF (RFC 5869). *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte HMAC-SHA256 tag. *)

val sha512 : key:string -> string -> string
(** [sha512 ~key msg] is the 64-byte HMAC-SHA512 tag. *)

val equal_constant_time : string -> string -> bool
(** Tag comparison that does not short-circuit on the first mismatch. *)

val hkdf_extract : ?salt:string -> string -> string
(** [hkdf_extract ~salt ikm] is the HKDF-SHA256 pseudorandom key. *)

val hkdf : ?salt:string -> info:string -> string -> int -> string
(** Extract-then-expand convenience wrapper. *)
