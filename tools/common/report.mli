(** Shared entry point and reporting layer for the four xks static analyzers
    (xkslint, xksrace, xksleak, xkscost).

    One contract for all four binaries: [TOOL [--json] DIR...] loads
    every [.ml] under the roots ({!Front.load}), runs the tool's rules,
    and prints findings in the compiler's location format or as one
    JSON object with the unified schema [{file, line, cstart, cend,
    rule, message}]; exit status is 0 clean, 1 findings, 2 usage,
    parse or annotation errors. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  cstart : int;  (** column span, 0-based, compiler convention *)
  cend : int;
  rule : string;  (** kebab-case rule id, e.g. ["leak-on-raise"] *)
  msg : string;
}

val at : string -> Location.t -> string -> string -> finding
(** [at file loc rule msg]: a finding spanning [loc]. *)

val main :
  tool:string ->
  ?rules:string list ->
  ?suppresses:('a -> string -> bool) ->
  ?by_position:bool ->
  'a Front.grammar ->
  ('a Front.program -> (finding -> unit) -> unit) ->
  unit
(** [main ~tool grammar check] parses [Sys.argv], loads the roots with
    [grammar] ([rules] are the ids an annotation may name), calls
    [check] with an emit function, and exits with the report.  A
    finding is dropped when an annotation on its line or the line
    above [suppresses] its rule, and when one with the same content —
    or, under [by_position], the same file, line, start column and rule
    — was emitted before.  Findings print sorted by file, line, column
    and rule; ties keep the reverse of emission order. *)
