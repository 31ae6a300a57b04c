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
