(** Ready-made WMN simulation scenarios.

    Each scenario builds a real {!Peace_core.Deployment} (tiny pairing
    parameters, genuine cryptography end-to-end), places nodes on a
    metropolitan area, and drives the serialised protocol messages through
    the radio model. Cryptographic processing times are charged from a
    fixed per-operation cost model (sign ≈ 40 ms, verify ≈ 60 ms + 9 ms per
    revocation token) so router queueing behaves like hardware of the
    paper's era even though the simulation crypto itself runs faster.

    These back experiments E7 (DoS/client puzzles), E8 (attack matrix) and
    E9 (scale) of DESIGN.md. *)

(** {1 City-scale authentication (E9)} *)

type city_result = {
  cr_attempts : int;
  cr_successes : int;
  cr_failures : (string * int) list;
  cr_handshake_mean_ms : float;  (** M.2 sent → session installed *)
  cr_handshake_p95_ms : float;
  cr_time_to_auth_mean_ms : float;  (** arrival → session (incl. beacon wait) *)
  cr_bytes_on_air : int;
  cr_router_utilisation : float;  (** busy time / wall time, averaged *)
  cr_retransmissions : int;  (** hardened M.2 resends after loss *)
  cr_timeouts : int;  (** handshakes abandoned (retransmission budget gone) *)
  cr_failovers : int;  (** users that switched to another live router *)
  cr_recovery_mean_ms : float;
      (** mean extra time from first retransmission to session, over
          handshakes that needed at least one resend (0 when none did) *)
  cr_fault_counters : (string * int) list;
      (** injected-fault bookkeeping: link counters (frames lost /
          duplicated / corrupted / reordered) plus crashes, restarts,
          stale-list acceptances and unknown-destination drops *)
  cr_invoices : (int * int * int * int) list;
      (** with [~invoices:true]: the city-wide per-group billing table
          [(group id, sessions, bytes, duration ms)], sorted by group —
          every accepted handshake is metered (M.2 bytes up, M.3 bytes
          down, modeled service time as duration) and attributed to its
          user group through the §IV-D audit path. Empty otherwise. *)
  cr_alerts : (int * string * Peace_obs.Alert.state) list;
      (** with [~alert_rules]: every alert state transition as
          [(sim ms, rule name, new state)], oldest first — deterministic
          for a fixed seed and fault plan. Empty otherwise. *)
}

val city_auth :
  ?seed:int -> ?area_m:float -> ?range_m:float ->
  ?beacon_period_ms:int -> ?url_size:int -> ?faults:Faults.plan ->
  ?hardened:bool -> ?invoices:bool ->
  ?sampler:Peace_obs.Timeseries.t ->
  ?alert_rules:Peace_obs.Alert.rule list ->
  n_routers:int -> n_users:int -> duration_ms:int ->
  mean_interarrival_ms:float -> unit -> city_result
(** Routers on a grid over an [area_m]² city; users placed uniformly;
    Poisson re-authentication arrivals per user. [url_size] pads the URL
    with that many (revoked, otherwise unused) tokens so verification cost
    scales as the paper predicts.

    [faults] applies a {!Faults.plan} to the radio and the routers: burst
    loss, duplication, reordering, corruption, scheduled router
    crash/restart churn and a stale-revocation-list partition. The fault
    machinery draws from its own random streams, so for a fixed [seed] the
    un-faulted event schedule — and therefore the result of
    [~faults:Faults.none] — is bit-identical to a run without the
    parameter.

    [hardened] (default [true]) enables the robust handshake path:
    {ul
    {- {b retransmission with capped exponential backoff} — an
       unanswered (M.2) is resent after 1 s, doubling up to an 8 s cap,
       with 0–250 ms of decorrelating jitter, at most 4 times; then the
       attempt is abandoned as {!Peace_core.Protocol_error.Timeout};}
    {- {b idempotent duplicate handling} — routers answer a replayed,
       already-answered (M.2) with the cached (M.3)
       ({!Peace_core.Mesh_router.enable_resend_cache});}
    {- {b failover} — after a timeout the user avoids the failed router
       for two beacon periods and answers the next live router's
       beacon.}}
    With [~hardened:false] an interrupted handshake simply times out after
    a fixed 3 s and waits for a later beacon — the legacy behaviour, kept
    as the E15 baseline.

    [alert_rules] installs a {!Peace_obs.Alert} evaluator on the engine
    clock — rules evaluate once per simulated second and the audit tap
    feeds its stream detectors from the routers' reject/revocation
    events — so a fault plan provably trips the matching rules at
    reproducible sim timestamps ([cr_alerts]).

    A [sampler] is attached to the engine ({!Engine.attach_sampler}) and
    tracks city-wide gauges on simulated time, one sample per simulated
    second: total router queue depth, in-flight handshakes, completed
    authentications and bytes on air. When a {!Peace_obs.Trace} collector
    is installed each authentication attempt additionally emits a causal span
    tree — [sim.handshake] (arrival to session) with [sim.user.sign] and
    [sim.router.service] children stitched across events and radio hops
    by the envelope request id. *)

(** {1 DoS flooding and client puzzles (E7)} *)

type dos_result = {
  dr_legit_attempts : int;
  dr_legit_successes : int;
  dr_bogus_received : int;
  dr_expensive_verifications : int;  (** group-sig checks actually run *)
  dr_cheap_rejections : int;  (** dropped at puzzle/freshness cost *)
  dr_router_utilisation : float;
  dr_attacker_hashes : int;  (** brute-force work the puzzles forced *)
}

val dos_attack :
  ?seed:int -> puzzles:bool -> ?puzzle_difficulty:int ->
  ?attacker_hash_rate_per_ms:float -> ?faults:Faults.plan ->
  attack_rate_per_s:float -> legit_rate_per_s:float -> duration_ms:int ->
  unit -> dos_result
(** One router, a population of legitimate users, and a flooder injecting
    well-formed but unverifiable access requests at [attack_rate_per_s].
    With [puzzles] the router enables client puzzles; the attacker then
    must brute-force each puzzle, capping its effective request rate at
    [attacker_hash_rate_per_ms] / 2^difficulty. [faults] layers a
    {!Faults.plan} on top: channel effects apply to every frame, and churn
    crashes/restarts the single router (the staleness partition is a
    {!city_auth}-only fault). As in {!city_auth}, [~faults:Faults.none]
    reproduces the un-faulted run bit for bit. *)

(** {1 Phishing window (E8)} *)

type phishing_result = {
  pr_accepted_before_revocation : int;
  pr_accepted_in_window : int;  (** stale-CRL acceptances after revocation *)
  pr_accepted_after_refresh : int;  (** must be 0 *)
  pr_window_ms : int;  (** measured exposure window *)
}

val phishing :
  ?seed:int -> crl_refresh_ms:int -> revoke_at_ms:int -> duration_ms:int ->
  attempt_period_ms:int -> unit -> phishing_result
(** A compromised (later revoked) router tries to phish user sessions. The
    user re-learns the CRL every [crl_refresh_ms] (from legitimate
    beacons); the scenario measures how long phishing keeps succeeding
    after revocation — the paper's §V-A bound. *)

(** {1 Attack matrix (E8)} *)

type attack_matrix = {
  am_outsider_accepted : int;  (** forged-signature requests accepted *)
  am_outsider_attempts : int;
  am_revoked_accepted : int;  (** revoked-user requests accepted *)
  am_revoked_attempts : int;
  am_replay_accepted : int;  (** replayed M.2 accepted *)
  am_replay_attempts : int;
  am_rogue_beacons_accepted : int;  (** self-signed beacons accepted *)
  am_rogue_beacon_attempts : int;
  am_legit_accepted : int;  (** sanity: legitimate traffic still flows *)
  am_legit_attempts : int;
}

val attack_matrix : ?seed:int -> attempts_per_class:int -> unit -> attack_matrix
(** Runs every §V-A adversary class against one router and counts
    acceptances (all attack rows must be zero). *)

(** {1 Multi-hop uplink relaying (the paper's layer-3 architecture)} *)

type multihop_result = {
  mh_near_successes : int;  (** direct, single-hop authentications *)
  mh_near_attempts : int;
  mh_far_successes : int;  (** completed through a relay peer *)
  mh_far_attempts : int;
  mh_peer_handshakes : int;  (** §IV-C mutual authentications performed *)
  mh_frames_out_of_range : int;  (** direct uplink attempts that failed *)
}

val multihop_auth :
  ?seed:int -> n_near:int -> n_far:int -> duration_ms:int -> unit ->
  multihop_result
(** One router with an asymmetric link budget: its beacons cover the whole
    cell, but users transmit only ~350 m. "Near" users authenticate
    directly; "far" users hear beacons yet cannot reach the router, so they
    first run the §IV-C peer handshake with a near user and then relay
    their (M.2)/(M.3) exchange through the resulting hop-protected
    session. *)

(** {1 Roaming / handoff (the §I mobility story)} *)

type roaming_result = {
  ro_handoffs : int;  (** re-authentications after a cell change *)
  ro_handoff_failures : int;
  ro_handoff_mean_ms : float;  (** beacon heard in new cell → session *)
  ro_moves : int;
  ro_sessions_per_user : float;
      (** all sessions are fresh pseudonym pairs: the roaming trace of a
          user is unlinkable across cells *)
}

val roaming :
  ?seed:int -> n_routers:int -> n_users:int ->
  duration_ms:int -> move_period_ms:int -> unit -> roaming_result
(** Users move between router cells (random waypoint teleports every
    [move_period_ms]) and re-run the full anonymous handshake with the new
    cell's router each time. *)
