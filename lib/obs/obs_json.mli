(** Minimal JSON: string quoting for the JSONL exporters, and a small
    value type with a parser/printer so {!Peace_obs} consumers (the bench
    regression harness in particular) can read their own files back
    without an external dependency. *)

val escape : string -> string
(** Backslash-escape quotes, backslashes, and control characters. *)

val str : string -> string
(** [str s] is [s] escaped and wrapped in double quotes. *)

(** A JSON value. Numbers are floats, as in JavaScript. *)
type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val num_to_string : float -> string
(** The number rendering [to_string] uses: integral floats print without
    a fractional part, everything else as [%.12g]. *)

val to_string : t -> string
(** Compact (single-line) rendering. Integral [Num]s print without a
    fractional part; [parse (to_string v)] round-trips. *)

val results_document :
  rev:string -> date:string -> (string * string * float * string) list -> string
(** The schema-1 results document that [peace bench-report] reads, and a
    newline: [{"schema":1,"rev":..,"date":..,"results":[..]}] with one
    [{"name","unit","value","better"}] object per (name, unit, value,
    better) row, in the order given; [better] is ["lower"] or
    ["higher"]. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value (trailing garbage is an error).
    [\uXXXX] escapes decode to UTF-8; a high/low surrogate pair (e.g.
    [😀]) combines into the single supplementary-plane scalar
    it encodes, emitted as one 4-byte UTF-8 sequence. An unpaired
    surrogate decodes alone, as before. *)

val member : string -> t -> t option
(** [member key (Obj ...)] is the field's value; [None] on a non-object
    or a missing key. *)

val to_float : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
