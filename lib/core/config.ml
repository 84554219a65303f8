open Peace_pairing
open Peace_ec

type t = {
  pairing : Params.t;
  curve : Curve.t;
  clock : Clock.t;
  ts_window_ms : int;
  crl_period_ms : int;
  cert_lifetime_ms : int;
}

let default ?(clock = Clock.system) pairing =
  {
    pairing;
    curve = Lazy.force Curves.secp160r1;
    clock;
    ts_window_ms = 30_000;
    crl_period_ms = 15 * 60 * 1000;
    cert_lifetime_ms = 30 * 24 * 3600 * 1000;
  }

let tiny_test ?(clock = Clock.manual ~start:1_000_000 ()) () =
  default ~clock (Lazy.force Params.tiny)
