(** Posting-list probes shared by the LCA algorithms.

    All probes work on posting lists: sorted arrays of node ids (document
    order), and on preorder intervals: a node [a] is an ancestor-or-self
    of [x] iff [a.id <= x.id <= a.subtree_end].  [fc x] is the deepest
    {e full container} of [x] — the deepest ancestor-or-self of [x] whose
    subtree contains every query keyword.  [fc] is also the paper's
    [elca_can]/[slca_can] candidate function when [x] comes from the
    smallest posting list. *)

val ancestor_at : Xks_xml.Tree.t -> Xks_xml.Tree.node -> int -> Xks_xml.Tree.node
(** [ancestor_at doc n d] is the ancestor of [n] at depth [d], reached by
    walking parent ids (no allocation).
    @raise Invalid_argument if [d] is negative or exceeds the depth of
    [n]. *)

val fc :
  Xks_xml.Tree.t -> int array array -> Xks_xml.Tree.node ->
  Xks_xml.Tree.node option
(** [fc doc postings x] is the deepest full container of [x]: the deepest
    ancestor-or-self of [x] whose subtree contains at least one occurrence
    of every keyword.  [None] when some posting list is empty (then no
    full container exists at all).

    One binary search per list finds the occurrences [l <= x.id < r]
    adjacent to [x]; an ancestor-or-self [a] of [x] holds the list iff
    [l >= a.id] or [r <= a.subtree_end].  The ancestors holding a list
    form a chain from the root, so a single walk up the parent ids,
    resumed list after list, stops at the answer.  Cost
    [O(k log |S| + depth x)]; the only allocation is the result's
    [Some]. *)

val smallest_list_index : int array array -> int
(** Index of the shortest posting list (ties broken by lower index).
    @raise Invalid_argument on an empty array. *)
