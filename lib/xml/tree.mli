(** XML tree model.

    An XML data is modelled as in the paper: a rooted, ordered, labelled
    tree [T = (r, V, E, Sigma, lambda)] where every node carries a label
    and leaf nodes may also carry a text value.  Attributes are kept on
    the node.  A node is its preorder rank, its {e id} (dense, root = 0);
    its Dewey code is derived on demand, and the two orders agree.

    A document is a set of columns indexed by id, each node fact held
    once: parent, subtree end, label, rank among its siblings, text and
    attributes.  Children, depths and Dewey codes are derived from the
    parent, subtree-end and rank columns.

    Values of type {!t} are immutable once built. *)

type t
(** A document: its columns plus its label intern table. *)

(** {1 Building}

    There is one construction path: a {!draft} fed one {!start} per
    start tag and one {!finish} per end tag, in document order, then
    frozen.  {!Parser} feeds it straight from the {!Sax} events;
    {!build} walks a {!builder} through the same two calls. *)

type draft
(** A document under construction.  Single-use: freeze it once. *)

val draft : unit -> draft

val start : draft -> string -> (string * string) list -> unit
(** [start d name attrs] opens an element: the next preorder id, a child
    of the innermost open element (the root if none is open).  Its
    parent, label, sibling rank and attributes are set here; the label
    is interned here, so label ids follow document order.
    @raise Invalid_argument if the root has already been finished. *)

val finish : draft -> string -> unit
(** [finish d text] closes the innermost open element with its text and
    sets its subtree end.
    @raise Invalid_argument if no element is open. *)

val freeze : draft -> t
(** The finished document: the draft's columns cut to its size.
    @raise Invalid_argument unless exactly the root has been finished. *)

type builder
(** A tree as a value, before ids are assigned: what generators, tests
    and the edits below construct. *)

val elem :
  ?attrs:(string * string) list -> ?text:string -> string -> builder list ->
  builder
(** [elem name children] is an element node named [name].  [text] is its
    direct text content. *)

val build : builder -> t
(** [build b] assigns preorder ids and freezes the tree, through
    {!start} and {!finish}. *)

(** {1 Columns}

    Every accessor takes a node id in [0 .. size t - 1] and raises
    [Invalid_argument] outside it.  The arrays are owned by the tree:
    callers must not mutate them.  The hot query paths
    (closest-occurrence probes, node-info construction, RTF dispatch)
    read them directly. *)

val size : t -> int
(** Number of nodes. *)

val labels : t -> Label.table

val parents : t -> int array
(** [(parents t).(id)] is the id of the parent of [id]: [-1] for the
    root. *)

val subtree_ends : t -> int array
(** [(subtree_ends t).(id)] is the id of the last node (in preorder) of
    the subtree rooted at [id]: that subtree is exactly the id range
    [id .. (subtree_ends t).(id)]. *)

val label_ids : t -> int array
(** [(label_ids t).(id)] is the interned label of [id]. *)

val label_name : t -> int -> string

val text : t -> int -> string
(** The node's concatenated text content, [""] when none. *)

val attrs : t -> int -> (string * string) list
(** The node's attribute name/value pairs, in document order. *)

(** {1 Derived structure} *)

val fold_children : ('a -> int -> 'a) -> 'a -> t -> int -> 'a
(** [fold_children f init t id] folds [f] over the children of [id] in
    document order: the first is [id + 1], and each later one starts
    one past the subtree of the one before, while inside the subtree of
    [id].  One step per child. *)

val depth : t -> int -> int
(** The number of edges from the root: one step up {!parents} per
    level. *)

val dewey : t -> int -> Dewey.t
(** The node's Dewey code, from the sibling ranks of its ancestors: one
    walk up {!parents}, one fresh array. *)

val find_by_dewey : t -> Dewey.t -> int option
(** The id of the node coded [d]: navigate from the root, stepping over
    the preceding siblings at each level. *)

val content_words : t -> int -> string list
(** The content [Cv] of a node: the normalised, stop-word-filtered word
    set implied by its label, text, and attributes (names and values),
    deduplicated and sorted. *)

val node_matches : t -> int -> string -> bool
(** [node_matches t id w] is [true] iff normalised keyword [w] occurs in
    the content of [id]. *)

(** {1 Editing (functional)} *)

val insert_subtree : t -> parent_id:int -> pos:int -> builder -> t
(** [insert_subtree t ~parent_id ~pos b] returns a new document equal to
    [t] with the tree [b] inserted as the [pos]-th child of the node whose
    id is [parent_id].  Used by the axiomatic-property checkers (data
    monotonicity / consistency).
    @raise Invalid_argument if [parent_id] or [pos] is out of range. *)

val delete_subtree : t -> id:int -> t
(** [delete_subtree t ~id] removes the subtree rooted at [id].
    @raise Invalid_argument if [id] is 0 (the root) or out of range. *)

val to_builder : t -> builder
(** Recover a builder from a document (for round-trips and edits). *)
