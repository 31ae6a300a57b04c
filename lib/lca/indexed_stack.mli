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
  int array array -> int array -> int -> (int * int) list -> bool
(** [is_elca doc postings cursors u child_ranges] is the pop-time
    witness check: does node [u]'s subtree hold, for every keyword, an
    occurrence outside every full container strictly below [u]?
    [child_ranges] are the preorder ranges of [u]'s already-determined
    candidate children (most recent first) — they only accelerate the
    probe scan; passing [[]] is correct but slower.  [cursors] is a
    {!Probe.cursors} array the check reuses as scratch for its probes
    (any positions are correct; a scan passes the same array to every
    pop so that each check starts near the last one).  Per keyword the
    probes and their {!Probe.fc} validations gallop forward through
    [u]'s range.  [budget] is ticked once per witness probe, so a
    deadline interrupts even a root-sized scan. *)

val scan :
  ?budget:Xks_robust.Budget.t ->
  emit:(int -> (int * int) list -> unit) ->
  stop:(unit -> bool) ->
  Xks_xml.Tree.t ->
  int array array ->
  int
(** [scan ~emit ~stop doc postings] runs the scan and calls
    [emit u passed] for each ELCA [u] as it pops: descendants before
    ancestors, not in document order.  [passed] holds the disjoint
    ranges [(v, end v)] of the maximal ELCAs strictly inside [u]: those
    inside no other ELCA strictly inside [u]; they are in document
    order.  It is empty iff [u] is an SLCA.  The scan derives it from
    one stack of emitted ids: candidates pop in post-order, so the ELCAs
    inside [u] are all emitted before [u], and the maximal ones are the
    stack's top entries with id [>= u] when [u] is emitted; they are
    popped into [passed] and [u] is pushed (the stack lives in a
    {!Xks_util.Scratch} buffer).  [stop ()] is asked after each rarest-keyword occurrence while
    work remains (more occurrences or open candidates), and after each
    pop of the final drain while candidates remain open; once it
    returns [true] the scan ends and calls neither callback again.
    Returns the number of rarest-keyword occurrences processed: [0],
    with nothing emitted, when some keyword has no occurrence or the
    query is empty.  [budget] is ticked once per rarest-keyword
    occurrence, once per pop and once per witness probe (via
    {!is_elca}); the callbacks tick their own work.
    @raise Xks_robust.Budget.Exhausted when the budget runs out. *)

val elca :
  ?budget:Xks_robust.Budget.t -> Xks_xml.Tree.t -> int array array -> int list
(** Ids of all ELCA nodes for the query whose posting lists are given,
    in document order: the {!scan} sink that collects every [emit] and
    never stops early, so [budget] is ticked as {!scan} ticks it.
    Empty when some keyword has no occurrence or the query is empty.
    @raise Xks_robust.Budget.Exhausted when the budget runs out. *)
