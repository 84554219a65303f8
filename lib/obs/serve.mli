(** A minimal HTTP listener (socket plumbing from {!Peace_sock}, no web
    framework) exposing the live registry — the externally scrapeable
    ops surface:

    - [GET /metrics]: Prometheus text exposition ({!Expo.prometheus})
    - [GET /healthz]: evaluates the registered health checks — [200 "ok"]
      when all pass, [503] listing the failures when any is degraded;
      [?verbose] reports every check's verdict
    - [GET /flight]: the {!Log} flight-recorder ring as JSONL ([?n=K]
      caps the event count, [?level=L] drops entries below severity [L],
      [?label=K:V] keeps only entries carrying that attr; an unknown
      level or a malformed label filter is a 400)
    - [GET /series]: the attached {!Timeseries} sampler as JSONL
      ([?name=S] selects one series; 404 when no sampler is attached)
    - [GET /audit/head]: chain head of the installed {!Audit} ledger as
      JSON; 404 when no ledger is installed
    - [GET /audit]: the ledger's buffered records as JSONL ([?since=SEQ]
      returns records with sequence number > SEQ; a non-numeric [since]
      is a 400)
    - [GET /alerts]: the attached {!Alert} evaluator's statuses as JSON
      ([?state=firing] filters to one state; 404 when no evaluator is
      attached, 400 on an unknown state)

    Sequential (one request at a time, connection closed per response),
    which is exactly the access pattern of a metrics scraper. *)

val serve :
  ?host:string ->
  ?max_requests:int ->
  ?on_listen:(int -> unit) ->
  port:int ->
  unit ->
  (unit, string) result
(** Bind [host:port] (default host [127.0.0.1]; port [0] lets the kernel
    pick) and serve until [max_requests] requests have been answered
    ([None] = forever). [on_listen] receives the actually bound port once
    the socket is listening — announce it to whoever will scrape. Blocks
    the calling domain.

    Hardened against misbehaving scrapers: [SIGPIPE] is ignored so a
    client that disconnects mid-response ([EPIPE]/[ECONNRESET]) costs only
    that response, and a reset between [accept] and [close] is swallowed.
    A socket that cannot be bound (e.g. [EADDRINUSE] because the port is
    taken) returns [Error] with a human-readable message instead of
    raising. *)

(** {1 Health checks}

    A check is a named thunk: [Ok ()] healthy, [Error reason] degraded.
    [/healthz] re-evaluates every registered check per scrape; with no
    checks registered it reports healthy (a bare [peace serve] behaves
    as it always did). Registration replaces by name and is safe from
    any domain. *)

val register_health : string -> (unit -> (unit, string) result) -> unit
val unregister_health : string -> unit

val health_results : unit -> (string * (unit, string) result) list
(** Evaluate all checks now (exceptions become [Error]); what [/healthz]
    renders. *)

val set_series_source : Timeseries.t option -> unit
(** Attach (or detach) the sampler behind [/series]. *)

val set_alerts_source : Alert.t option -> unit
(** Attach (or detach) the alert evaluator behind [/alerts]. The serve
    loop only renders current statuses; whoever attaches the evaluator
    is responsible for driving {!Alert.eval} periodically. *)

(** {1 Plumbing shared with tests and the CLI} *)

val percent_decode : string -> string
(** [%XX] and [+] decoding; malformed escapes pass through verbatim. *)

val parse_query : string -> (string * string) list
(** Decode a raw query string ([a=1&b=x%20y]) into pairs; [+] and [%XX]
    decode, a key without [=] maps to [""]. *)

val parse_request : string -> (string * string * (string * string) list) option
(** Parse a request head into (method, path, query pairs). *)

val http_get :
  ?host:string -> port:int -> string -> (int * string, string) result
(** One-shot GET returning (status code, body) — the client side of this
    server, used by [peace watch] and the smoke tests. Reads to EOF, so
    it pairs with servers that close per response. *)
