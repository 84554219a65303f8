(** Self-driving SLO probe: boot an {!Authority} on a private Unix-domain
    socket, drive it with {!Loadgen}, tear everything down, and return the
    combined client/server view. One call gives [peace slo] and bench
    experiment E16 a reproducible end-to-end measurement with no ports,
    no fixtures, and no leftover state (the socket lives in a fresh
    temporary directory that is removed afterwards). *)

type result_ = {
  slo_report : Loadgen.report;  (** the client-side SLO numbers *)
  slo_counters : (string * int) list;  (** [service.*] registry snapshot *)
}

val run :
  ?params:Peace_pairing.Params.t ->
  ?n_users:int ->
  ?workers:int ->
  ?concurrency:int ->
  ?rate:float ->
  ?duration_s:float ->
  ?impair:Loadgen.impairments ->
  ?seed:int ->
  unit ->
  (result_, string) result
(** Defaults: 4 users, 2 connection workers, concurrency 2, closed
    loop, 2 s. The authority and the load workers share one in-process
    {!Testbed}, so key material agrees by construction. The server is always stopped (and its socket removed)
    before [run] returns, including on load-generator failure. *)

val print : result_ -> unit
(** {!Loadgen.print_report} followed by the [service.*] counter table. *)

val bench_json : ?prefix:string -> rev:string -> date:string -> result_ -> string
(** The run as a schema-1 bench JSON document (newline-terminated) —
    rows [<prefix>.throughput_rps], [.p50_ms], [.p95_ms], [.p99_ms],
    [.ok_total], [.errors_total] with direction annotations, byte-
    compatible with what the bench harness emits, so two SLO runs diff
    with [peace bench-report]. Default [prefix] is ["slo"]. *)
