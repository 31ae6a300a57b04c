(** Binary save/load of inverted indexes, with integrity checking.

    A compact, self-describing on-disk format so large corpora are
    indexed once and reopened instantly (the paper's counterpart is the
    shredded PostgreSQL database persisting across runs).  Format
    ["XKSIDX2\n"]:

    - magic, then a CRC-32 (little-endian u32) of everything after it,
    - the word count,
    - per word: a byte length, a CRC-32 of the section, then the word,
      its occurrence count, and its posting list with ids delta- and
      varint-encoded (posting lists are sorted, so gaps are small).

    The per-word framing lets {!decode} report {e which} word section a
    bit flip or torn write damaged; truncation, trailing garbage and
    overflowing varints all fail with a byte position.  Files in the
    old ["XKSIDX1\n"] format (no checksums) are still readable.

    The document itself is saved separately as XML ({!Xks_xml.Writer});
    {!load} re-attaches a loaded index to it and verifies that posting
    ids are in range. *)

type table = (string * int * int array) list
(** [(word, occurrences, posting)] rows, sorted by word. *)

val save : string -> Inverted.t -> unit
(** [save path idx] writes the index with {!save_table}.
    @raise Sys_error on I/O failure. *)

val save_table : string -> table -> unit
(** [save_table path rows] writes [encode rows] to a temporary file in
    [path]'s directory, fsyncs it and renames it over [path]: a crash at
    any point leaves either the previous file or the complete new one,
    and other links to the previous file keep its bytes.  The new file
    keeps an existing [path]'s permissions.  On failure the
    temporary file is removed and [path] is untouched.
    @raise Sys_error on I/O failure. *)

val load : string -> Xks_xml.Tree.t -> Inverted.t
(** [load path doc] reads an index saved by {!save} and binds it to
    [doc].  The file bytes pass through the {!Xks_robust.Failpoint}
    site {!read_site}, so tests can inject corruption.
    @raise Failure if the file is not a valid index (corruption reports
    include the damaged word section), or if a posting id falls outside
    [doc] (wrong document).
    @raise Sys_error if the file cannot be read. *)

val load_or_rebuild :
  ?log:(string -> unit) -> ?save_repaired:bool -> string ->
  Xks_xml.Tree.t -> Inverted.t
(** [load_or_rebuild path doc] is {!load}, but a missing, truncated or
    corrupt file degrades to re-indexing [doc] from scratch instead of
    failing: a warning naming the damage goes to [log] (default
    [prerr_endline]) and, when [save_repaired] is [true] (default), the
    rebuilt index is written back over [path].  Never raises [Failure] —
    the rebuilt index is always served. *)

val read_site : string
(** The failpoint site name for index reads, ["persist.read"]. *)

val encode : table -> string
(** The on-disk bytes for rows (what {!save} writes). *)

val decode : string -> table
(** Inverse of {!encode}.
    @raise Failure on malformed bytes — and {e only} [Failure]: any
    truncation, bit flip or garbage of valid bytes is reported cleanly
    with a byte position. *)

val dump : Inverted.t -> table
(** The index contents as rows (also used by the tests). *)

val of_table : Xks_xml.Tree.t -> table -> Inverted.t
(** Rebuild an index value from rows.
    @raise Failure on out-of-range ids or unsorted postings. *)
