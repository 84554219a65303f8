(** One decode kept per decoder: a decoder wrapped by {!decoder} returns
    the value of its last successful decode, without decoding again, when
    it is handed the same bytes under the same parameter set and curve
    (physically equal [config.pairing] and [config.curve]; a miss only
    costs a decode). Any other input is decoded afresh and, if it
    decodes, replaces the kept value; a failed decode never does. The
    entry is immutable and swapped whole in one [Atomic.t], so decoders
    on several domains never see a torn one. *)

val decoder : (Config.t -> string -> 'a option) -> Config.t -> string -> 'a option
