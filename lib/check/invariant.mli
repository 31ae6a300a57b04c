(** Dynamic invariant checks — the runtime complement of [xkslint].

    Every check returns the list of violated invariants (empty = clean)
    rather than raising, so callers can aggregate across a workload and
    report everything at once.  The checks cover the fragile implicit
    contracts the pipeline relies on:

    - posting lists are sorted, duplicate-free and in-range;
    - keyword-node arrays are in document order, and preorder-rank order
      agrees with {!Xks_xml.Dewey.compare};
    - RTFs are well-formed (Definition 2): keyword nodes inside the LCA
      subtree, genuinely matching a query keyword, and jointly covering
      every keyword;
    - fragments are connected (every member's parent is a member);
    - the node-info tree carries the kList/cID the paper's constructing
      step defines, with children in document order;
    - valid-contributor pruning respects its Definition 4
      post-conditions (subset of the raw RTF, root preserved, no query
      keyword lost, a single child of its label kept). *)

type violation = { rule : string; detail : string }

val to_string : violation -> string
(** ["[rule] detail"]. *)

val posting : ?word:string -> Xks_xml.Tree.t -> int array -> violation list
(** Sorted ascending, duplicate-free, every id inside the document. *)

val index : Xks_index.Inverted.t -> violation list
(** {!posting} over the whole vocabulary. *)

val doc_order : Xks_xml.Tree.t -> int array -> violation list
(** The id array is in document order {e by Dewey code}: catches both
    unsorted arrays and any divergence between preorder ranks and
    {!Xks_xml.Dewey.compare}. *)

val rtf :
  ?require_coverage:bool -> Xks_core.Query.t -> Xks_core.Rtf.t ->
  violation list
(** Well-formedness of one raw RTF.  [require_coverage] (default [true])
    additionally demands that the dispatched keyword nodes cover every
    query keyword — guaranteed when the LCA list is the ELCA set. *)

val fragment : Xks_xml.Tree.t -> Xks_core.Fragment.t -> violation list
(** Connectivity: root is a member, every member lies in the root's
    subtree and has its parent in the fragment. *)

val node_info :
  ?cid_mode:Xks_index.Cid.mode -> Xks_core.Query.t -> Xks_core.Rtf.t ->
  Xks_core.Node_info.t -> violation list
(** A constructed info tree (built under [cid_mode], default [Approx])
    against a direct reference: its members are exactly
    {!Xks_core.Rtf.raw_fragment}'s; each member's kList is the union of
    {!Xks_core.Query.node_klist} over the RTF keyword nodes in its
    subtree and its cID the merge of those nodes' content features
    (re-tokenised from the document); each member's [rtf_children] are
    in strictly ascending id order, and each child's document parent is
    that member. *)

val valid_contributor_post :
  ?cid_mode:Xks_index.Cid.mode -> Xks_core.Query.t -> Xks_core.Rtf.t ->
  Xks_core.Fragment.t -> violation list
(** Definition 4 post-conditions of [Prune.valid_contributor] applied to
    one RTF and its pruned fragment. *)
