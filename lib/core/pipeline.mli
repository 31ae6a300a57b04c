(** The four-stage skeleton shared by ValidRTF and MaxMatch.

    Algorithm 1's shape: [getKeywordNodes] (the prepared {!Query}), a
    [getLCA] stage, [getRTF], and a pruning stage.  {!Validrtf} and
    {!Maxmatch} instantiate the two varying stages. *)

type lca_algorithm =
  | Elca_indexed_stack  (** all interesting LCA nodes (the paper) *)
  | Elca_tree_scan  (** same semantics by full tree scan (A2 ablation) *)
  | Slca_only  (** SLCA nodes only (original MaxMatch) *)

type pruning =
  | Valid_contributor  (** Definition 4 (ValidRTF) *)
  | Contributor  (** MaxMatch's mechanism *)
  | No_pruning  (** raw RTFs *)

type result = {
  query : Query.t;
  lcas : int list;  (** document order *)
  rtfs : Rtf.t list;
  fragments : Fragment.t list;  (** one per LCA, same order *)
}

val run_query :
  ?cid_mode:Xks_index.Cid.mode -> ?budget:Xks_robust.Budget.t ->
  lca:lca_algorithm -> pruning:pruning -> Query.t -> result
(** Run the four stages over a prepared query.

    [budget] makes the run cooperative: posting entries are charged up
    front, then the LCA stage, keyword-node dispatch and per-RTF pruning
    tick as they visit nodes.
    @raise Xks_robust.Budget.Exhausted when the budget runs out;
    {!Xks_core.Engine.search_result} catches this and degrades instead. *)

val lcas_rtfs :
  ?budget:Xks_robust.Budget.t -> lca:lca_algorithm -> Query.t ->
  int list * Rtf.t list
(** The LCA stage and [getRTF]: {!run_query} without the pruning stage,
    charging the same ticks.
    @raise Xks_robust.Budget.Exhausted when the budget runs out. *)

val fragment :
  ?cid_mode:Xks_index.Cid.mode -> ?budget:Xks_robust.Budget.t -> pruning ->
  Query.t -> Rtf.t -> Fragment.t
(** The pruning stage for one RTF: tick [budget] once per keyword node
    plus one, construct the RTF's {!Node_info} and prune it.
    @raise Xks_robust.Budget.Exhausted when the budget runs out. *)

val run :
  ?cid_mode:Xks_index.Cid.mode -> lca:lca_algorithm -> pruning:pruning ->
  Xks_index.Inverted.t -> string list -> result
(** [run idx ws] prepares the query and calls {!run_query}.
    @raise Invalid_argument as {!Query.make}. *)
