(** XML parser.

    A small, dependency-free XML parser sufficient for the document
    classes the paper processes (DBLP, XMark): elements, attributes,
    character data, CDATA sections, comments, processing instructions and
    the XML declaration, with the five predefined entities and numeric
    character references.  DTDs are skipped, namespaces are kept verbatim
    in names.

    Mixed content is flattened: all character data directly under an
    element is concatenated (whitespace-trimmed at both ends) into the
    element's [text], preserving the paper's model in which a node has a
    label and an optional value.

    The tree is built in one pass over the {!Sax} events: each start tag
    is a {!Tree.start} on a {!Tree.draft}, each end tag a {!Tree.finish}
    with the element's text — Sax's concatenated slice, trimmed and
    copied once — and the draft is frozen at the end. *)

exception Error of { line : int; col : int; message : string }
(** Raised on malformed input, with 1-based position. *)

val parse_string : ?limits:Xks_robust.Limits.t -> string -> Tree.t
(** [parse_string s] parses a complete XML document.
    @raise Error on malformed input.
    @raise Xks_robust.Limits.Limit_exceeded when [limits] (default
    {!Xks_robust.Limits.default}) is crossed — depth, attribute, text
    or node bombs are rejected with position info rather than parsed. *)

val parse_file : ?limits:Xks_robust.Limits.t -> string -> Tree.t
(** [parse_file path] reads and parses [path].
    @raise Error on malformed input.
    @raise Xks_robust.Limits.Limit_exceeded when [limits] is crossed.
    @raise Sys_error if the file cannot be read. *)

val error_to_string : exn -> string option
(** Render an {!Error}; [None] for other exceptions. *)
