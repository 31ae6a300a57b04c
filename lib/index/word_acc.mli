(** The word accumulator both indexers share.

    {!Inverted.build} (over a tree) and {!Stream_index} (over SAX
    events) feed it every piece of a node's content — label, text,
    attribute names and values — with the node's id, and read the
    inverted-index rows off it at the end.  What counts as a word is
    {!Xks_xml.Tokenizer}'s ({!Xks_xml.Tokenizer.word_start} and
    {!Xks_xml.Tokenizer.word_end}); what a posting is — the distinct ids
    of the nodes holding the word, ascending, beside the occurrence
    count — is decided here, once.

    The input is scanned in place: each word is hashed and compared
    lowercased on the fly, and a word's string is allocated and its
    stop-word flag decided once, at its first occurrence.  A posting
    whose ids arrive in order is never sorted. *)

type t

val create : unit -> t

val add_slice : t -> int -> string -> int -> int -> unit
(** [add_slice t id s off len] records every word of
    [s.[off .. off + len - 1]] as an occurrence in node [id].  Nothing of
    the slice is kept, so [s] may be a buffer its owner overwrites
    afterwards. *)

val add_string : t -> int -> string -> unit
(** [add_string t id s] is [add_slice t id s 0 (String.length s)]. *)

val add_attrs : t -> int -> (string * string) list -> unit
(** The names and values of a node's attributes, in order. *)

val rows : t -> (string * int * int array) list
(** [(word, occurrences, posting)] for every non-stop word, sorted by
    word; each posting is strictly increasing.  Call once, after the
    last add. *)
