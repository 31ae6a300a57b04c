(** XML tree model.

    An XML data is modelled as in the paper: a rooted, ordered, labelled
    tree [T = (r, V, E, Sigma, lambda)] where every node carries a label
    and leaf nodes may also carry a text value.  Attributes are kept on
    the node.  Every node is identified both by its preorder rank [id]
    (dense, root = 0) and by its Dewey code; the two orders agree.

    Values of type {!t} are immutable once built. *)

type node = private {
  id : int;  (** preorder rank within the document; the root has id 0 *)
  label : Label.t;  (** interned element name *)
  text : string;  (** concatenated text content, [""] when none *)
  attrs : (string * string) list;  (** attribute name/value pairs *)
  dewey : Dewey.t;
  parent : int;  (** id of the parent node, [-1] for the root *)
  children : node array;
  subtree_end : int;
      (** id of the last node (in preorder) of the subtree rooted here;
          the subtree is exactly the id range [id .. subtree_end]. *)
}

type t
(** A document: a tree plus its label intern table. *)

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
    of the innermost open element (the root if none is open).  Its id,
    label, Dewey code and parent are set here; the label is interned
    here, so label ids follow document order.
    @raise Invalid_argument if the root has already been finished. *)

val finish : draft -> string -> unit
(** [finish d text] closes the innermost open element with its text:
    its children (the elements finished since its start) and its
    subtree end are set here.
    @raise Invalid_argument if no element is open. *)

val freeze : draft -> t
(** The finished document, with the flat arrays ({!parents} and its
    siblings) filled once.
    @raise Invalid_argument unless exactly the root has been finished. *)

type builder
(** A tree as a value, before ids and Dewey codes are assigned: what
    generators, tests and the edits below construct. *)

val elem :
  ?attrs:(string * string) list -> ?text:string -> string -> builder list ->
  builder
(** [elem name children] is an element node named [name].  [text] is its
    direct text content. *)

val build : builder -> t
(** [build b] assigns preorder ids and Dewey codes and freezes the tree,
    through {!start} and {!finish}. *)

(** {1 Access} *)

val root : t -> node
val size : t -> int
(** Number of nodes. *)

val node : t -> int -> node
(** [node t id] is the node with preorder rank [id].
    @raise Invalid_argument if [id] is out of range. *)

val labels : t -> Label.table
val label_name : t -> node -> string

(** {1 Flat intervals}

    Three fields of every node as arrays indexed by node id, filled
    once by {!freeze}: the hot query paths (closest-occurrence probes,
    node-info construction, RTF dispatch) walk these instead of the node
    records.  The arrays are owned by the tree: callers must not mutate
    them. *)

val parents : t -> int array
(** [(parents t).(id)] is [(node t id).parent]: [-1] for the root. *)

val subtree_ends : t -> int array
(** [(subtree_ends t).(id)] is [(node t id).subtree_end]. *)

val label_ids : t -> int array
(** [(label_ids t).(id)] is [(node t id).label]. *)

(** {1 Navigation} *)

val find_by_dewey : t -> Dewey.t -> node option
(** Navigate from the root by child ranks. *)

val parent_node : t -> node -> node option

val iter : (node -> unit) -> t -> unit
(** Preorder iteration over all nodes. *)

val fold : ('a -> node -> 'a) -> 'a -> t -> 'a
(** Preorder fold over all nodes. *)

val in_subtree : root:node -> node -> bool
(** [in_subtree ~root n] is [true] iff [n] is [root] or a descendant of
    [root] (constant time, via the preorder range). *)

val content_words : t -> node -> string list
(** The content [Cv] of a node: the normalised, stop-word-filtered word
    set implied by its label, text, and attributes (names and values),
    deduplicated and sorted. *)

val node_matches : t -> node -> string -> bool
(** [node_matches t n w] is [true] iff normalised keyword [w] occurs in
    the content of [n]. *)

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
