(** XML serialization.

    Writes a {!Tree.t} back to XML text.  Round-tripping through
    {!Parser.parse_string} yields an equal tree (same labels, attributes,
    trimmed text, and shape). *)

val escape_text : string -> string
(** Escape [&], [<] and [>] for character data. *)

val escape_attr : string -> string
(** Escape [&], [<], [>] and the double quote for attribute values. *)

val to_string : ?declaration:bool -> ?indent:int -> Tree.t -> string
(** [to_string t] renders the document.  [declaration] (default [true])
    prepends the XML declaration; [indent] (default [2]) is the
    indentation step — pass [0] for compact single-line output.  Elements
    carrying both text and child elements emit the text first. *)

val to_file : ?declaration:bool -> ?indent:int -> string -> Tree.t -> unit
(** [to_file path t] writes [to_string t] to [path]. *)

val subtree_to_string : ?indent:int -> Tree.t -> int -> string
(** Render only the subtree rooted at a node id (no declaration). *)
