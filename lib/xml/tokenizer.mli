(** Word extraction.

    The paper defines the content [Cv] of a node as "the word set implied
    in v's label, text and attributes".  This module turns strings into
    that word set: ASCII-lowercased alphanumeric runs, with stop words
    removed.  Keyword matching throughout the library is on these
    normalised words. *)

val normalize : string -> string
(** [normalize w] ASCII-lowercases [w].  Keywords in queries must be
    normalised with this before matching. *)

val words : ?keep_stopwords:bool -> string -> string list
(** [words s] is the list of normalised words of [s] in occurrence order,
    possibly with duplicates.  A word is a maximal run of ASCII letters or
    digits.  Stop words are dropped unless [keep_stopwords] is [true]. *)

val word_set : ?keep_stopwords:bool -> string -> string list
(** [word_set s] is [words s] deduplicated and sorted lexically. *)

val iter_words : ?keep_stopwords:bool -> (string -> unit) -> string -> unit
(** [iter_words f s] calls [f] on each normalised non-stop word of [s] in
    occurrence order, without building a list. *)

(** {1 Word boundaries}

    The definition every word scan shares: a word is a maximal run of
    ASCII letters and digits.  {!iter_words} is built on the two scans
    below; the indexers ([Xks_index.Word_acc]) call them on a slice of
    their input, so they find the same words without copying the
    text. *)

val word_start : string -> int -> int -> int
(** [word_start s i stop] is the first index in [[i, stop)] holding a
    word byte, or [stop] if none. *)

val word_end : string -> int -> int -> int
(** [word_end s i stop] is the first index in [[i, stop)] holding a
    non-word byte, or [stop] if none: the end of the word starting at
    [i]. *)
