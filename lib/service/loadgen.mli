(** The [peace loadgen] client: drives real PEACE handshakes against a
    live {!Authority} and reports wall-clock SLO numbers.

    [concurrency] worker domains each own one user (so user state is
    never shared across domains) and one connection, and repeatedly run
    the full M.1 -> M.2 -> M.3 exchange: fetch the beacon, build a genuine
    signed access request with {!Peace_core.User.process_beacon}, send
    it, and validate the returned confirm with [process_confirm] — the
    client is a real protocol participant, not a byte cannon.

    Two driving modes:
    - {e closed loop} ([rate] absent): each worker issues handshakes
      back-to-back — the saturation-throughput probe. Recorded latency
      is the whole M.1 -> M.3 handshake: the beacon fetch, the client's
      signing and the (M.2) -> (M.3) round trip.
    - {e open loop} ([rate] given): arrivals follow a Poisson process of
      [rate] handshakes/s spread over the workers, and latency is
      measured from the {e scheduled} arrival time: the same M.1 -> M.3
      span plus the wait for the worker, so queueing delay is charged
      to the server (no coordinated omission).

    Impairments make the client adversarial: per-handshake probabilistic
    connection drops, malformed (M.2) payloads, truncated frames cut
    mid-header, and uniform send jitter. Impairment randomness comes from
    a dedicated {!Peace_sim.Sim_rand} stream per worker, so a seeded run
    replays the same misbehaviour. *)

type impairments = {
  im_jitter_ms : float;  (** uniform [0..jitter] ms pause before each send *)
  im_drop_p : float;  (** close + reconnect instead of the handshake *)
  im_malformed_p : float;  (** send garbage bytes as the (M.2) payload *)
  im_truncate_p : float;  (** send a frame cut short, then reconnect *)
}

val no_impairments : impairments
val is_no_impairments : impairments -> bool

val impairments_of_string : string -> (impairments, string) result
(** Comma-separated tokens: [jitter:MS | drop:P | malformed:P |
    truncate:P], e.g. ["drop:0.05,malformed:0.1,jitter:2"]. *)

type report = {
  lr_duration_s : float;  (** measured wall-clock run length *)
  lr_mode : string;  (** ["closed-loop"] or ["open-loop @ R/s"] *)
  lr_concurrency : int;
  lr_attempted : int;  (** handshakes started *)
  lr_ok : int;  (** confirms received and validated *)
  lr_impaired : int;  (** sends sacrificed to impairments *)
  lr_errors : (string * int) list;  (** error kind -> count, sorted *)
  lr_latencies_ms : float array;  (** successful handshakes, sorted *)
  lr_throughput_rps : float;  (** ok / duration *)
}

val percentile : float array -> float -> float
(** {!Peace_obs.Registry.percentile}: [percentile sorted p] for [p] in
    [0..100], linear interpolation, 0 on an empty array. *)

val run :
  connect:Peace_sock.addr ->
  testbed:Testbed.t ->
  ?concurrency:int ->
  ?rate:float ->
  ?duration_s:float ->
  ?impair:impairments ->
  ?seed:int ->
  ?timeout_s:float ->
  unit ->
  (report, string) result
(** Drive the server at [connect]. Defaults: concurrency 2, closed loop,
    2 s, no impairments, seed 42, 5 s receive timeout. The testbed must
    have at least [concurrency] users (each worker needs its own). *)

val print_report : report -> unit
(** The SLO table on stdout: attempts, throughput, p50/p95/p99/max
    latency, error breakdown. *)
