(** Streaming index construction.

    Builds inverted-index rows straight from the SAX event stream,
    without materialising a {!Xks_xml.Tree.t} — the tree typically costs
    several times the text, so this is the low-memory path for indexing
    very large corpora (index now, parse the tree lazily or on another
    machine).  Node ids are assigned by counting start events, which is
    exactly the preorder numbering {!Xks_xml.Tree.build} produces, so the
    rows are interchangeable with {!Inverted.to_rows}:

    {[
      let rows = Stream_index.rows_of_file "huge.xml" in
      (* ... later, with the document at hand: *)
      let idx = Inverted.of_rows doc rows
    ]}

    Mixed-content text is concatenated per element before tokenisation,
    matching the tree model's text semantics: {!Xks_xml.Sax} hands each
    element's text to its end event as one slice, and the slice is
    tokenised in place, untrimmed, by the {!Word_acc} that
    {!Inverted.build} uses too.  No string is made per element or per
    word occurrence, only one per distinct word. *)

val rows_of_string :
  ?limits:Xks_robust.Limits.t -> string -> (string * int * int array) list
(** [(word, occurrences, posting)] rows, sorted by word — equal to
    [Inverted.to_rows (Inverted.build (Parser.parse_string s))].
    @raise Xks_xml.Sax.Error on malformed input.
    @raise Xks_robust.Limits.Limit_exceeded when [limits] (default
    {!Xks_robust.Limits.default}) is crossed. *)

val rows_of_file :
  ?limits:Xks_robust.Limits.t -> string -> (string * int * int array) list
(** As {!rows_of_string}, reading from a file.
    @raise Xks_xml.Sax.Error on malformed input.
    @raise Xks_robust.Limits.Limit_exceeded when [limits] is crossed.
    @raise Sys_error if the file cannot be read. *)

val save_file :
  ?limits:Xks_robust.Limits.t -> input:string -> output:string -> unit -> int
(** Stream-index [input] and write the rows to [output] with
    {!Persist.save_table} (crash-safe replace); returns the number of
    distinct words. *)
