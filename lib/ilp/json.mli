(** Minimal JSON values: parser and printer.

    Just enough JSON for the tracing subsystem — emitting and re-reading
    JSONL event streams and Chrome [trace_event] files — without pulling
    a third-party dependency into the solver library. The parser accepts
    any RFC 8259 document (objects, arrays, strings with escapes,
    numbers, booleans, null); the printer always emits valid JSON with
    escaped strings and round-trippable floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Parses one JSON document. The error string carries a character
    offset and a short description. Trailing whitespace is allowed;
    trailing non-whitespace is an error. *)

val to_string : t -> string
(** Compact (no-whitespace) rendering. Integers stored in the [Num]
    float are printed without a decimal point, so counters round-trip
    textually. *)

val to_buffer : Buffer.t -> t -> unit

(** {1 Accessors} — all return [None]/[[]] on a type mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an object. *)

val to_list : t -> t list
val str : t -> string option
val num : t -> float option
val int : t -> int option
val bool : t -> bool option

val load_lines :
  ?hint:string -> string -> (t -> ('a, string) result) -> ('a list, string) result
(** Reads a JSONL file: one document per line, decoded by [decode], in
    file order; blank lines are skipped. An error names the first
    offending physical line (1-based) as ["line N: …"]; [hint], in
    parentheses, follows the message of a line that is not JSON. An
    unreadable file gives its [Sys_error] message. *)
