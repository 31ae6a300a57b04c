(** ELCA computation from posting lists — the paper's [getLCA] stage.

    The Indexed Stack algorithm of Xu & Papakonstantinou (EDBT 2008)
    computes all ELCA ("interesting LCA") nodes without touching the tree
    beyond the posting lists: for each occurrence [v] of the rarest
    keyword the ELCA candidate [elca_can v] is the deepest full container
    of [v] (every ELCA arises this way); candidates nest along root-leaf
    paths as [v] sweeps left to right, so a stack tracks the open ones.
    When a candidate [u] is popped it is checked: for every keyword there
    must be a witness occurrence in [u]'s subtree lying outside every full
    container strictly below [u].  The check probes the posting list with
    binary searches, first skipping the ranges of [u]'s already-determined
    candidate children, and validates each probe [x] by requiring that
    [fc x] — the deepest full container of [x] — is not strictly below
    [u]; invalid probes skip the whole subtree of [fc x], so each probe
    either succeeds or jumps over a maximal full container.

    {!scan} is the one loop; {!elca} and {!Topk.run} are its sinks. *)

val is_elca :
  ?budget:Xks_robust.Budget.t ->
  Xks_xml.Tree.t ->
  int array array -> int array -> int -> Xks_util.Int_vec.t -> int -> bool
(** [is_elca doc postings cursors u kids first] is the pop-time
    witness check: does node [u]'s subtree hold, for every keyword, an
    occurrence outside every full container strictly below [u]?  The
    entries of [kids] from [first] on, read in place, are the ids of
    [u]'s already-determined candidate children [c], each standing for
    its range [(c, end c)]; they only accelerate the probe scan (an
    empty slice is correct but slower).  [cursors] is a
    {!Probe.cursors} array the check reuses as scratch for its probes
    (any positions are correct; a scan passes the same array to every
    pop so that each check starts near the last one).  [budget] is
    ticked once per witness probe, so a deadline interrupts even a
    root-sized scan. *)

val scan :
  ?budget:Xks_robust.Budget.t ->
  emit:(int -> Xks_util.Int_vec.t -> int -> unit) ->
  stop:(unit -> bool) ->
  Xks_xml.Tree.t ->
  int array array ->
  int
(** [scan ~emit ~stop doc postings] runs the scan and calls
    [emit u passed first] for each ELCA [u] as it pops: descendants
    before ancestors, not in document order.  The entries of [passed]
    from [first] on are the maximal ELCAs strictly inside [u] (inside no
    other ELCA strictly inside [u]), in document order, each standing
    for its range [(v, end v)]; the slice is empty iff [u] is an SLCA.
    [passed] is the scan's own stack of emitted ids, lent for the call:
    [emit] must not modify it or keep it.  Candidates pop in post-order,
    so the ELCAs inside [u] are all emitted before [u], and the maximal
    ones are the stack's top entries with id [>= u]; after [emit] they
    are dropped and [u] is pushed.  The open candidates, their candidate
    children (one segmented stack) and the emitted ids live in
    {!Xks_util.Scratch} buffers, so a rarest-keyword occurrence
    allocates nothing.  The pop-time check is {!is_elca} minus the
    rarest keyword: a candidate [u] is opened as [fc v] for a
    rarest-keyword occurrence [v], which lies in [u]'s subtree and in no
    full container strictly below [u] (that would be a deeper full
    container of [v]), so [v] is a witness.  [stop ()] is asked after
    each rarest-keyword occurrence while work remains (more occurrences
    or open candidates), and after each pop of the final drain while
    candidates remain open; once it returns [true] the scan ends and
    calls neither callback again.  Returns the number of rarest-keyword
    occurrences processed: [0], with nothing emitted, when some keyword
    has no occurrence or the query is empty.  [budget] is ticked once
    per rarest-keyword occurrence, once per pop and once per witness
    probe of the other keywords; the callbacks tick their own work.
    @raise Xks_robust.Budget.Exhausted when the budget runs out. *)

val elca :
  ?budget:Xks_robust.Budget.t -> Xks_xml.Tree.t -> int array array -> int list
(** Ids of all ELCA nodes for the query whose posting lists are given,
    in document order: the {!scan} sink that collects every [emit] and
    never stops early, so [budget] is ticked as {!scan} ticks it.
    Empty when some keyword has no occurrence or the query is empty.
    @raise Xks_robust.Budget.Exhausted when the budget runs out. *)
