(** Leveled, labeled, domain-safe logging with a flight recorder.

    Every event, at every level, lands in a lock-free ring of
    {!capacity} entries — the flight recorder — so the last events are
    always available for a post-hoc look ({!recent}, the authority's
    [/flight] endpoint) without any sink having been attached in
    advance. The record path is three atomic operations; no locks, safe
    from any domain.

    Each event also bumps the registry counter
    [log.events_total{level="..."}]. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string
val level_of_string : string -> level option

val event : ?attrs:(string * string) list -> level -> string -> unit
(** Record one event. *)

val debug : ?attrs:(string * string) list -> string -> unit
val info : ?attrs:(string * string) list -> string -> unit
val warn : ?attrs:(string * string) list -> string -> unit
val error : ?attrs:(string * string) list -> string -> unit

(** {1 The flight recorder} *)

type entry

val ts : entry -> int
(** Wall-clock nanoseconds at emission. *)

val entry_level : entry -> level
val msg : entry -> string
val attrs : entry -> (string * string) list

val recent :
  ?min_level:level -> ?label:string * string -> ?n:int -> unit -> entry list
(** The most recent events, oldest first ([n] caps the count; default is
    the whole ring). [min_level] drops entries below that severity — the
    [/flight?level=warn] filter. [label:(k, v)] keeps only entries whose
    attrs contain exactly that pair — the [/flight?label=k:v] filter.
    Note [n] caps the {e scan}, not the filtered result: the last [n]
    events are fetched, then filtered.
    Snapshots without stopping writers: under heavy concurrent logging an
    event racing the snapshot may or may not appear, but every returned
    entry is a real, complete event. *)

val recent_jsonl :
  ?min_level:level -> ?label:string * string -> ?n:int -> unit -> string
(** {!recent} rendered as JSONL (each line newline-terminated) — the
    body of the [/flight] endpoint. One object per event:

    {v
    {"ts_ns":...,"level":"warn","msg":"queue full","dom":3,"attrs":{...}}
    v} *)

val capacity : int
(** The ring's size, 1024: older events are overwritten. *)

val clear : unit -> unit
(** Empty the ring. *)
