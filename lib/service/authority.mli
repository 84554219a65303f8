(** The live PEACE authentication authority.

    A long-lived server that terminates real user<->router handshakes over
    TCP or Unix-domain sockets: clients fetch the router's current (M.1)
    beacon, send (M.2) access requests, and receive genuine (M.3) access
    confirms — the exact {!Peace_core.Mesh_router} code paths the
    simulator exercises, now under wall-clock load.

    {2 Architecture}

    [workers] domains each own the connections they accepted. A worker
    waits in [select] on its connections, and on the listener while it
    is its turn to accept: the next client goes to the worker that holds
    the fewest connections, ties to the lowest index, so concurrent
    clients spread over the workers, and which worker a client lands on
    follows from the order of connects and hang-ups alone. A worker whose
    turn comes while it waits is woken through a pipe of its own. It
    serves one frame from each ready connection per pass, so connections
    that share a worker interleave their requests, and an idle connection
    holds no worker. The authority holds at most 512 connections, which
    keeps every descriptor it adds below [select]'s limit of 1 024;
    further clients wait in the listen backlog (64). A client that drips
    a frame byte by byte still holds its worker while it drips, and so
    delays a new client whose turn falls to that worker; a frame that
    stalls for 250 ms closes its connection.

    Router state is serialised behind one mutex, but only the {e cheap}
    phases of (M.2) handling hold it
    ({!Mesh_router.access_precheck_frame} / [access_finish]). The
    precheck reads the frame's encodings: a frame it refuses, at the
    puzzle gate say, costs no point decode. The points of a frame that
    passes ({!Mesh_router.access_points}) and the group-signature
    verification run on the worker with the mutex released, so up to
    [workers] verifications proceed in parallel.

    {2 Observability}

    Frame handling is wrapped in [service.request] spans with
    [service.decode] / [service.verify] / [service.encode] children (an
    access frame's [service.decode] covers everything before the
    signature check: framing, precheck and point decodes), and
    the registry carries [service.connections_total],
    [service.connections_active], [service.conn_queue_depth],
    [service.workers_busy], [service.requests_total],
    [service.confirms_total], [service.beacons_total] and labelled
    [service.errors_total{kind=...}] counters, and the four spans time
    themselves into the
    [service.request_ns]/[decode_ns]/[verify_ns]/[encode_ns] histograms —
    all scrapeable through the existing {!Peace_obs.Serve} listener.

    A request that arrives in a {!Frames.Traced} envelope continues the
    client's trace: its [service.request] span is opened with
    {!Peace_obs.Trace.start_remote} carrying the wire (trace, parent), so
    the client's and the server's JSONL spans stitch into one tree per
    handshake. Lifecycle events (listening, stopping, frame-sync loss,
    worker crashes) go to the {!Peace_obs.Log} flight recorder.

    While running, the authority registers two {!Peace_obs.Serve} health
    checks — [authority.queue] (saturated: [4 * workers] connections
    have a request ready that waits for its worker, the count
    [service.conn_queue_depth] reports) and
    [authority.errors] (error rate over the requests since the previous
    evaluation above 50%, min 10 requests) — so a colocated [/healthz]
    returns 503 when the service degrades; {!stop} unregisters them.

    {2 Shutdown}

    {!stop} is graceful: each worker answers the frames it is serving,
    then closes every connection it holds, idle ones included, within
    the 250 ms [select] timeout; all workers are joined before {!stop}
    returns. *)

open Peace_core

type t

val start :
  ?workers:int ->
  ?beacon_period_ms:int ->
  config:Config.t ->
  router:Mesh_router.t ->
  Peace_sock.addr ->
  (t, string) result
(** Binds [addr] and begins serving on [workers] domains. Defaults: 2
    workers and a 1000 ms beacon refresh period (one broadcast beacon
    serves every handshake inside the period, as in the paper's §IV-B
    broadcast model). A bind failure (e.g. [EADDRINUSE]) is [Error].
    @raise Invalid_argument if [workers < 1] or [beacon_period_ms < 1]. *)

val bound_addr : t -> Peace_sock.addr
(** The resolved listen address (kernel-assigned port filled in). *)

val stop : t -> unit
(** Graceful shutdown as described above. Idempotent and safe to call
    from any domain; foreground callers ([peace serve-auth]) typically
    poll a signal flag and call it from their main loop. *)

val service_counters : unit -> (string * int) list
(** Current [service.*] counters and gauges from the registry, sorted by
    name — the post-run report surface for examples and [peace slo]. *)

val default_alert_rules : string
(** The stock {!Peace_obs.Alert} rules text [peace serve-auth --alerts
    default] loads: an error-rate SLO burn over
    [service.errors_total/service.connections_total], a connection-queue
    depth threshold, reject-storm and revoked-credential-reuse stream
    detectors, and a request-latency anomaly rule. *)
