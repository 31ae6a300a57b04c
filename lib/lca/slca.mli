(** SLCA computation from posting lists.

    The Indexed Lookup Eager algorithm of Xu & Papakonstantinou (SIGMOD
    2005): for each occurrence [v] of the rarest keyword, the candidate
    [slca_can v] is the deepest full container of [v] ({!Probe.fc}: the
    paper's [lm]/[rm] probes on the other lists, read as one galloping
    search per list from a cursor the sweep carries forward); the SLCAs
    are the candidates that are not ancestors of other candidates.  The
    eager step keeps them in the same pass: each candidate is an
    ancestor-or-self of the last one kept, strictly inside it, or after
    its subtree, so no candidate is buffered or sorted.  Time
    [O(|S1| (k log (|S| / |S1| + 1) + d))], where [S1] is the smallest
    list, [S] the largest and [d] the document depth: the cursors only
    move forward, so each list's gallops sum to that logarithm at most.
    No allocation beyond the result list and one cursor array.

    This powers the {e original} MaxMatch baseline, which works on SLCA
    fragments only. *)

val indexed_lookup_eager :
  ?budget:Xks_robust.Budget.t -> Xks_xml.Tree.t -> int array array -> int list
(** Ids of all SLCA nodes, in document order.  Empty when some keyword has
    no occurrence (or the query is empty).  [budget] is ticked once per
    occurrence of the rarest keyword, so a request deadline interrupts
    the candidate sweep.
    @raise Xks_robust.Budget.Exhausted when the budget runs out. *)

val filter_minimal : Xks_xml.Tree.t -> int list -> int list
(** [filter_minimal doc ids] keeps the ids with no other id strictly
    inside their subtree.  [ids] must be sorted and duplicate-free
    (document order); used by every candidate-based SLCA algorithm. *)
