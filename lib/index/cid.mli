(** Content features ("cID", paper section 4.1).

    The tree content set [TC_v] of a node is the union of the contents of
    the keyword nodes in its subtree.  Comparing full sets is expensive,
    so the paper approximates each set by its [(min, max)] word pair under
    lexical order and treats two children with equal pairs as having equal
    content.  An exact mode keeping the whole sorted word set is provided
    for the A1 ablation, which measures what the approximation trades
    away. *)

type mode = Approx  (** the paper's [(min, max)] pair *) | Exact

type t
(** A content feature.  Features must be combined and compared only with
    features produced under the same {!mode}. *)

val empty : t
(** Feature of an empty content set (a node with no keyword node below). *)

val of_words : mode -> string list -> t
(** Feature of a content set given as a word list (any order, duplicates
    allowed). *)

val merge : t -> t -> t
(** Feature of the union of two content sets.
    @raise Invalid_argument when mixing modes. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** A hash that agrees with {!equal} in both modes: equal features hash
    equally.  Every word of an exact feature contributes. *)

val is_empty : t -> bool

val pp : Format.formatter -> t -> unit
(** Renders like the paper: [(keyword, XML)] in approx mode, the full set
    in exact mode. *)

(** {1 Ranked approximate features}

    When the vocabulary is ranked lexically (word ranks sort like the
    words), an approximate feature is a pair of ranks, packed into one
    [int]: merging is an integer min and max, and two packed features
    are equal iff the features they stand for are.  {!Inverted} builds
    the table once per index, and node-info construction and pruning
    fold and compare these ints instead of string pairs. *)

type table = private {
  words : string array;  (** rank -> word, strictly ascending *)
  nodes : int array;
      (** node id -> packed approximate feature of the node's own
          content; {!packed_empty} for a node with no indexed word *)
}

val table :
  words:string array -> postings:int array array -> nodes:int -> table
(** [table ~words ~postings ~nodes] ranks [words] (which must be
    strictly ascending under [String.compare]) by position and computes
    the packed feature of every node [0 .. nodes - 1] in one pass over
    [postings] in rank order, where [postings.(r)] holds the ids of the
    nodes whose content contains [words.(r)].  With the postings of an
    index this equals [of_words Approx (Tree.content_words doc n)] for
    every node [n], without re-tokenising the document.
    @raise Invalid_argument when the arities differ, the words are not
    strictly ascending, or there are [2^31 - 1] words or more. *)

val packed_empty : int
(** The packed feature of the empty content set. *)

val merge_packed : int -> int -> int
(** {!merge} on packed features. *)

val decode : table -> int -> t
(** The feature a packed value stands for ([Minmax] or [Empty]). *)
