(** Deployment-wide configuration shared by all PEACE entities. *)

open Peace_pairing
open Peace_ec

type t = {
  pairing : Params.t;  (** bilinear group for group signatures and DH *)
  curve : Curve.t;  (** ECDSA curve for certificates and receipts *)
  clock : Clock.t;
  ts_window_ms : int;
      (** acceptance window for protocol timestamps (replay defence) *)
  crl_period_ms : int;  (** CRL/URL re-issue period of the operator *)
  cert_lifetime_ms : int;  (** router certificate lifetime *)
}

val default : ?clock:Clock.t -> Params.t -> t
(** Sensible defaults: secp160r1 certificates (the paper's ECDSA-160), a
    30 s timestamp window, 15 min CRL period, 30-day certificates. *)

val tiny_test : ?clock:Clock.t -> unit -> t
(** [default] over the [tiny] pairing preset — for tests and simulations. *)
