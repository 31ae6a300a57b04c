(** Differential oracle: cross-check the optimised LCA algorithms and
    the pruning pipeline against the naive reference implementations in
    {!Xks_lca.Naive}.

    The naive implementations decide full containment by direct
    posting-list scans over preorder ranges — no stacks, no binary
    search, no Dewey arithmetic — so they are the trusted side of every
    comparison.  A disagreement is reported as a violation naming the
    implementation, the stage and both result lists. *)

type impl = {
  name : string;  (** shown in violation reports *)
  compute : Xks_xml.Tree.t -> int array array -> int list;
}

val elca_impls : impl list
(** [Indexed_stack.elca], [Stack_algos.elca], [Tree_scan.elca]. *)

val slca_impls : impl list
(** [Slca.indexed_lookup_eager], [Stack_algos.slca], [Scan_eager.slca],
    [Multiway.slca]. *)

val elca :
  ?impls:impl list -> Xks_xml.Tree.t -> int array array ->
  Invariant.violation list
(** Compare each implementation against {!Xks_lca.Naive.elca}.  Pass a
    custom [impls] to audit a new or deliberately broken algorithm. *)

val slca :
  ?impls:impl list -> Xks_xml.Tree.t -> int array array ->
  Invariant.violation list
(** Compare each implementation against {!Xks_lca.Naive.slca}. *)

val check_query :
  ?tag:string -> Xks_index.Inverted.t -> string list ->
  Invariant.violation list
(** Full audit of one query: posting/document-order invariants, every
    ELCA and SLCA implementation against the naive reference, RTF
    well-formedness over the naive ELCA set, {!Invariant.node_info} on
    the pipeline's RTFs in both cID modes, and Definition 4
    post-conditions on the real ValidRTF pipeline output.  [tag]
    prefixes every violation (e.g. with the query text).  Queries the
    index cannot prepare (no keywords survive normalisation) check
    vacuously. *)

val check_workload :
  Xks_index.Inverted.t -> string list list -> Invariant.violation list
(** {!check_query} over a workload, tagging each violation with its
    query. *)
