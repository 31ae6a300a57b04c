(** Dewey codes.

    A Dewey code identifies a node in an XML tree by the sequence of child
    ranks on the path from the root: the root is [[||]]; its third child is
    [[|2|]]; that child's first child is [[|2; 0|]].  Rendered as
    ["0.2.0"], with the leading ["0"] standing for the root as in the
    paper.

    Dewey codes are compatible with preorder: [compare a b < 0] iff the
    node coded [a] precedes the node coded [b] in the preorder (document
    order) traversal.  The lowest common ancestor of two nodes is coded by
    the longest common prefix of their codes. *)

type t = private int array
(** A Dewey code.  The root is the empty array.  Immutable by convention:
    no function in this library mutates a [t] after creation. *)

val root : t
(** The code of the document root. *)

val of_array : int array -> t
(** [of_array a] uses [a] as a Dewey code.  The array is copied.
    @raise Invalid_argument if any component is negative. *)

val of_list : int list -> t
(** [of_list l] is [of_array (Array.of_list l)]. *)

val child : t -> int -> t
(** [child d i] is the code of the [i]-th child ([i >= 0]) of the node
    coded [d]. *)

val parent : t -> t option
(** [parent d] is the code of the parent node, or [None] for the root. *)

val depth : t -> int
(** [depth d] is the number of edges from the root; [depth root = 0]. *)

val compare : t -> t -> int
(** Document (preorder) order.  An ancestor precedes its descendants. *)

val equal : t -> t -> bool

val is_ancestor : t -> t -> bool
(** [is_ancestor a d] is [true] iff the node coded [a] is a {e strict}
    ancestor of the node coded [d]. *)

val is_ancestor_or_self : t -> t -> bool
(** Non-strict version of {!is_ancestor}. *)

val lca : t -> t -> t
(** [lca a b] is the code of the lowest common ancestor of the nodes coded
    [a] and [b]: their longest common prefix. *)

val lca_list : t list -> t
(** [lca_list ds] is the LCA of all codes in [ds].
    @raise Invalid_argument on the empty list. *)

val prefix : t -> int -> t
(** [prefix d n] is the code made of the first [n] components of [d]: the
    ancestor of [d] at depth [n].
    @raise Invalid_argument if [n < 0] or [n > depth d]. *)

val component : t -> int -> int
(** [component d i] is the [i]-th child rank on the path. *)

val to_string : t -> string
(** ["0.2.0.1"]-style rendering; the root renders as ["0"] and every other
    code is prefixed by ["0."], following the paper's figures. *)

val of_string : string -> t
(** Inverse of {!to_string}.
    @raise Invalid_argument on malformed input (including input that does
    not start with the root component ["0"]). *)
