(** Minimal JSON values: printing and parsing, dependency-free.

    Used by {!Trace.to_json}, the CLI's [--trace-json] and the bench
    harness's [BENCH_*.json] artifacts (and their smoke validation).
    Printing always produces valid JSON — non-finite floats become
    [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering.  Its bytes are those of the
    Printf-based printer it replaced: strings escape the double quote,
    the backslash, newline, carriage return and tab by name and every
    other byte below 0x20 as a lowercase [\u00XX], all other bytes as
    is; ints print as [string_of_int] does, [min_int] included; finite
    floats print with C's [%.6g], the conversion [Printf]'s [%g] calls,
    and non-finite ones as [null].  It does plain string work: each run of bytes that
    need no escape is copied at once, ints are written digit by digit
    into the buffer, floats skip [Printf]'s format machinery, and lists
    and objects recurse without closures. *)

exception Parse_error of string

val parse : string -> t
(** Parse a complete JSON document.
    @raise Parse_error on malformed input or trailing garbage. *)

val member : string -> t -> t option
(** Field lookup; [None] on missing field or non-object. *)

val to_list : t -> t list option
val to_float : t -> float option
(** Accepts both [Float] and [Int]. *)

val to_int : t -> int option
val to_str : t -> string option
