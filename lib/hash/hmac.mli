(** HMAC-SHA256 (RFC 2104), plus HKDF-SHA256 (RFC 5869). *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte HMAC-SHA256 tag. *)

val equal_constant_time : string -> string -> bool
(** Tag comparison that does not short-circuit on the first mismatch. *)

val hkdf_extract : ?salt:string -> string -> string
(** [hkdf_extract ~salt ikm] is the HKDF-SHA256 pseudorandom key. *)

val hkdf : ?salt:string -> info:string -> string -> int -> string
(** Extract-then-expand convenience wrapper. *)
