(** The node data structure of paper section 4.1, and the constructing
    step of [pruneRTF].

    For each node of a raw RTF we keep its "Self Info" — Dewey code,
    label, [kList] (tree keyword set as a key number) and [cID] (content
    feature of its tree content set) — and its "Children Info": the RTF
    children grouped by distinct label, each group carrying the sorted
    distinct key numbers ([chkList]) and the children's cIDs, which is
    everything Definition 4 needs.

    The constructing step gives every member the information of all
    keyword nodes in its subtree, as the paper's lines 5–12 do by
    transferring each keyword node's information to every ancestor up to
    the RTF root (including the line 11–12 fix).  It is computed in one
    sweep over the keyword nodes in reverse document order, folding each
    member into its parent once when its subtree is complete. *)

type info = private {
  id : int;
  label : Xks_xml.Label.t;
  mutable klist : Xks_index.Klist.t;  (** tree keyword set (key number) *)
  mutable feature : int;
      (** feature of the tree content set, as an integer key: two
          members of one info tree have equal keys iff their cIDs are
          equal ({!cid} decodes it).  A packed pair of lexical word
          ranks from the query's feature table
          ({!Xks_index.Cid.table}) in Approx mode; a number assigned
          per construct in Exact mode. *)
  mutable rtf_children : info list;  (** children within the RTF, document order *)
}

type t
(** The constructed info tree for one RTF. *)

val construct : ?cid_mode:Xks_index.Cid.mode -> Query.t -> Rtf.t -> t
(** Build the info tree of a raw RTF: one {!info} per RTF member (keyword
    nodes and connecting path nodes), with [klist]/[feature] aggregated
    bottom up.  Keyword-node contents are read from the document; path nodes
    contribute no content of their own (the paper's tree content set only
    unions {e keyword} nodes).  In [Approx] mode the features come from
    the query's feature table and are folded as integers; in [Exact]
    mode each keyword node is re-tokenised.

    [rtf.knodes] must be in document order, as {!Rtf.get_rtfs} gives them,
    and inside the subtree of [rtf.lca].  Cost: O(members) plus, per
    keyword node and keyword, one test of that keyword's posting cursor
    and, when the cursor must move, one galloping step along the
    posting list, never more than a binary search.
    @raise Invalid_argument ["Node_info.construct: ..."] naming the
    keyword node when one lies outside the subtree of [rtf.lca] or the
    keyword nodes are out of document order. *)

val root : t -> info

val cid : t -> info -> Xks_index.Cid.t
(** [cid t info] is the cID of [info]'s tree content set, decoded from
    its integer [feature] (through the index's ranked vocabulary, or the
    construct's own numbering).  For explanations and checks; pruning
    compares the integers. *)

type label_group = {
  group_label : Xks_xml.Label.t;
  counter : int;  (** number of children with this label *)
  chklist : int array;  (** sorted distinct key numbers of the group *)
  group_children : info list;  (** document order *)
}

val label_groups : info -> label_group list
(** The "Children Info" of a node: its RTF children grouped by label, in
    order of first appearance, each group in document order.  A member
    with zero or one child needs no grouping; otherwise one pass files
    each child under its label id in a per-domain scratch array. *)

val info_of : t -> int -> info option
(** Look up the info of an RTF member by node id ([None] for any other
    id).  Descends from the root, so it costs O(depth × fan-out). *)
