(** Minimal JSON reader — just enough to validate and inspect the files
    this library writes (JSONL traces, Chrome traces, metrics snapshots)
    without pulling a JSON dependency into the toolchain. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Parse one complete JSON value; trailing whitespace is allowed,
    trailing garbage is an error. *)
val parse : string -> (t, string) result

(** [escape s] is [s] as the body of a JSON string literal: a double
    quote and a backslash are backslash-escaped, newline, carriage return
    and tab take their one-letter forms, every other byte below 0x20 is
    written as a [\u00XX] escape, and all other bytes pass through
    unchanged. *)
val escape : string -> string

(** {!Engine.Units.float_repr}.  Not JSON-safe for nan/inf — callers
    must handle non-finite values themselves. *)
val float_repr : float -> string

(** Field of an object ([None] for a missing key or a non-object). *)
val member : string -> t -> t option

val to_float : t -> float option
val to_string : t -> string option

(** Validate a JSONL stream: every line parses as a JSON object carrying
    a numeric [key] field, and those values are non-decreasing.
    Returns the number of lines, or an error naming the first offending
    line (1-based). *)
val validate_jsonl : ?key:string -> string -> (int, string) result
