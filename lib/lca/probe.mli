(** Posting-list probes shared by the LCA algorithms.

    All probes work on posting lists: sorted arrays of node ids (document
    order), and on preorder intervals: a node [a] is an ancestor-or-self
    of [x] iff [a.id <= x.id <= a.subtree_end].  [fc x] is the deepest
    {e full container} of [x] — the deepest ancestor-or-self of [x] whose
    subtree contains every query keyword.  [fc] is also the paper's
    [elca_can]/[slca_can] candidate function when [x] comes from the
    smallest posting list. *)

val ancestor_at : Xks_xml.Tree.t -> int -> int -> int
(** [ancestor_at doc id d] is the id of the ancestor of [id] at depth
    [d]: one walk up the parent ids for the depth of [id]
    ({!Xks_xml.Tree.depth}), one more to the ancestor (no allocation).
    @raise Invalid_argument if [d] is negative or exceeds the depth of
    [id]. *)

val cursors : int array array -> int array
(** [cursors postings] is a fresh cursor array for {!fc}: one position
    per posting list, all at 0. *)

val fc : Xks_xml.Tree.t -> int array array -> int array -> int -> int
(** [fc doc postings cursors x] is the id of the deepest full container
    of node [x]: the deepest ancestor-or-self of [x] whose subtree
    contains at least one occurrence of every keyword.  [-1] when some
    posting list is empty (then no full container exists at all).

    One search per list finds the occurrences [l <= x < r] adjacent to
    [x]; an ancestor-or-self [a] of [x] holds the list iff [l >= a] or
    [r <= end a].  The ancestors holding a list form a chain from the
    root, so a single walk up the tree's parent column
    ({!Xks_xml.Tree.parents}), resumed list after list, stops at the
    answer.

    [cursors.(i)] is a position in [postings.(i)] (any value in
    [0 .. length]) where the search for [x] starts; [fc] leaves it at
    [Bsearch.upper_bound postings.(i) x].  A scan that probes ascending
    nodes and carries one cursor array along pays
    [O(k log d + depth x)] per call, where [d] is the distance each
    cursor moves; a cursor already at the answer or one entry short
    (the common case) is recognised inline, without a search.  A cursor
    further behind or ahead is still correct
    ({!Xks_util.Bsearch.upper_bound_from}), at worst about two binary
    searches.  Allocation-free. *)

val smallest_list_index : int array array -> int
(** Index of the shortest posting list (ties broken by lower index).
    @raise Invalid_argument on an empty array. *)
