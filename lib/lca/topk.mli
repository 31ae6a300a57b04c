(** Top-k ELCA retrieval with score-bounded early termination.

    A sink of {!Indexed_stack.scan}.  Its [emit] scores each ELCA as it
    pops, from posting-range counts under the RTF dispatch semantics
    (each keyword occurrence belongs to the deepest emitted LCA
    containing it: the ELCA's range minus its [passed] ranges), and
    keeps the best k in a {!Xks_util.Topheap}.  The counts come from
    posting cursors that only gallop forward (emitted ELCAs end in
    nondecreasing order) and from a running total of the occurrences
    already dispatched inside the ELCA, so an emit costs two gallops per
    keyword whatever the number of its [passed] ranges.  Its [stop] ends
    the scan once the heap is full and an upper bound over the
    still-unconsumed keyword occurrences is strictly below the heap's
    minimum score: the knodes of distinct RTFs partition keyword
    occurrences, so [avail_i = df_i − Σ emitted tf_i] caps any future
    fragment's tf, and [bound] (monotone in each component) caps its
    score; only an emit moves either side, so [bound] is called at the
    first ask after each emit.  Keyword nodes are merged, one cursor per
    posting list, for the k winners only.  The surviving candidates are
    exactly the k best fragments of the full enumeration under (score
    desc, LCA id asc) — {!Xks_check} pins the equivalence.

    The scoring callbacks live with the caller ({!Xks_core.Rank}); this
    module only promises to call them with exact RTF term frequencies
    and a true per-keyword availability vector. *)

type candidate = {
  lca : int;  (** ELCA node id *)
  score : float;
  tf : int array;  (** per-keyword dispatched-occurrence counts *)
  knodes : int array;
      (** sorted, distinct keyword-node ids dispatched to this LCA —
          identical to the full pipeline's {!Xks_core.Rtf.t}[.knodes] *)
}

type outcome = {
  top : candidate list;  (** best-first: score desc, ties by LCA id asc *)
  early_exit : bool;  (** the scan stopped with work remaining *)
  scanned : int;  (** driver-list occurrences processed *)
}

val run :
  ?budget:Xks_robust.Budget.t ->
  k:int ->
  score:(lca:int -> tf:int array -> float) ->
  bound:(avail:int array -> float) ->
  Xks_xml.Tree.t ->
  int array array ->
  outcome
(** [run ~k ~score ~bound doc postings] keeps the k best fragments.
    [score] must be monotone nondecreasing in every [tf] component and
    [bound ~avail] must be an upper bound on [score] over all tf vectors
    with [tf_i <= avail_i] — {!Xks_core.Rank} provides both; early
    termination is unsound otherwise.  The [tf] array passed to [score]
    is a scratch buffer the scan refills for every emitted fragment: it
    is valid only during the call, so [score] must read it and not keep
    it (the [tf] of each returned {!candidate} is its own copy).  The
    same holds for the [avail] array passed to [bound].
    [budget] is ticked as {!Indexed_stack.scan} ticks it, plus once per
    keyword and passed range of each emitted fragment (charged in one
    call per keyword) and once per posting entry in a winner's range.  Ticks the [topk.early_exit] /
    [topk.pruned_postings] trace counters when the bound fires.
    @raise Invalid_argument when [k < 1].
    @raise Xks_robust.Budget.Exhausted when the budget runs out. *)
