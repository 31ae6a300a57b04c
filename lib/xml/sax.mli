(** Streaming (SAX-style) XML parsing.

    Emits begin-element and end-element events through callbacks without
    materialising a tree — the same event stream {!Parser} builds its
    {!Tree.t} from.  Use this to scan documents whose tree would be the
    dominant memory cost (e.g. counting words, shredding straight into
    an index).  An element's text arrives with its end event, as one
    slice: the tree model's text is all character data directly under
    the element, concatenated, and that concatenation is made here,
    once, for every consumer.

    The full input text is held in memory (no incremental refill); what
    streaming saves is the tree, typically several times the text size.

    Supported syntax is exactly {!Parser}'s: elements, attributes,
    character data with the predefined entities and numeric references,
    CDATA, comments, processing instructions, an optional DOCTYPE
    (skipped).

    Parsing is governed by {!Xks_robust.Limits}: nesting depth,
    attribute count, decoded text bytes and element count are capped
    (default {!Xks_robust.Limits.default}) so adversarial inputs fail
    with a structured {!Xks_robust.Limits.Limit_exceeded} instead of
    exhausting the stack or heap.

    Scanning makes no string per byte, per text piece or per element's
    text: character data is scanned up to the next markup in one step
    and charged to [max_text_bytes] once per piece, closing names are
    checked in place, and the text of all open elements shares one
    buffer (each element's pieces after its mark, dropped at its end
    tag).  Positions are computed only when raising, by counting the
    newlines before the offending offset. *)

exception Error of { line : int; col : int; message : string }
(** Raised on malformed input, with 1-based position. *)

type handler = {
  on_start : string -> (string * string) list -> unit;
      (** element name and attributes, at every opening (or
          self-closing) tag *)
  on_end : string -> string -> int -> int -> unit;
      (** [on_end name s off len], at every closing tag (and right
          after [on_start] for a self-closing one): the element's text
          is [s.[off .. off + len - 1]], every character-data and CDATA
          piece directly under it, decoded and concatenated in document
          order, untrimmed ([len = 0] when there is none).

          {b The slice is only valid during the call.}  [s] is either
          the input itself — when the text is one piece without
          references — or the parser's text buffer, which later events
          overwrite; copy what must outlive the call. *)
}

val handler :
  ?on_start:(string -> (string * string) list -> unit) ->
  ?on_end:(string -> string -> int -> int -> unit) -> unit -> handler
(** A handler with the given callbacks; omitted ones do nothing. *)

val parse_string : ?limits:Xks_robust.Limits.t -> handler -> string -> unit
(** Scan a complete document, firing events in document order.
    @raise Error on malformed input.
    @raise Xks_robust.Limits.Limit_exceeded when [limits] (default
    {!Xks_robust.Limits.default}) is crossed. *)

val parse_file : ?limits:Xks_robust.Limits.t -> handler -> string -> unit
(** @raise Error on malformed input.
    @raise Xks_robust.Limits.Limit_exceeded when [limits] is crossed.
    @raise Sys_error if the file cannot be read.

    The file bytes pass through the {!Xks_robust.Failpoint} site
    {!read_site}, so tests can inject truncation or I/O errors. *)

val read_site : string
(** The failpoint site name for file reads, ["sax.read"]. *)

val error_to_string : exn -> string option
(** Render an {!Error}; [None] for other exceptions. *)
