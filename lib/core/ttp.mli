(** The offline trusted third party.

    Stores the blinded key components [A_{i,j} ⊕ pad(x_j)] received from the
    operator during setup, and releases one to a user at the group manager's
    request. Holding only blinded values, it can recover neither x nor A —
    requirement (iii) of §IV-A. It collects user receipt signatures for
    non-repudiation. *)

open Peace_ec

type t

val create : Config.t -> t

val store : t -> Network_operator.ttp_share list -> unit
(** Loads the blinded shares of a registration batch. *)

val release : t -> group_id:int -> index:int -> string option
(** The blinded [A ⊕ pad(x)] for key [i,j]; [None] if unknown. *)

val record_user_receipt :
  t -> group_id:int -> index:int -> user_public:Curve.point ->
  Ecdsa.signature -> bool
(** Verifies and stores the user's signature over the released share. *)

val share_count : t -> int
val receipt_count : t -> int
