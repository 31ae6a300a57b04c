(** Differential oracle for ranked top-k retrieval.

    The streaming scan behind [Engine.search ~rank:`Bm25 ~k]
    ({!Xks_lca.Topk}) prunes work with a score bound; its soundness
    claim is that the pruned answer is {e indistinguishable} from
    scoring every fragment and keeping the best [k].  These checks test
    exactly that, by structural equality on the full hit lists — LCA
    ids, BM25 scores (bit-for-bit: both sides sum the same per-keyword
    contributions in the same [`Rarest] order), pruned fragments and
    SLCA tags.  {!check_ladder} applies the same comparison to budgeted
    answers. *)

val check_counts : ?tag:string -> Xks_core.Query.t -> Invariant.violation list
(** Rule [topk-tf]: the counts of every fragment the scan scores, not
    only the winners'.  Runs {!Xks_lca.Topk.run} under BM25 with [k]
    one above the ELCA count, so that the heap never fills and every
    emitted fragment is kept; the kept LCAs must be exactly the ELCAs
    ({!Xks_lca.Indexed_stack.elca}), and each candidate's [tf] and
    [knodes] must equal {!Xks_core.Rank.tf_of_rtf} and [knodes] of the
    {!Xks_core.Rtf.get_rtfs} RTF with the same LCA.  Prepare [q] with
    [~order:`Rarest], as the engine does. *)

val check_query :
  ?tag:string -> ?k:int -> Xks_core.Engine.t -> string list ->
  Invariant.violation list
(** Rule [topk-equivalence]: compare [search ~rank:`Bm25 ~k] against
    the [k]-prefix (default [k = 10]) of the sorted full-enumeration
    answer for one query; then {!check_counts} (rule [topk-tf]) on the
    same query.  [tag] prefixes the violation detail (e.g. with the
    query text). *)

val check_batch :
  ?k:int -> Xks_core.Engine.t -> string list list ->
  Invariant.violation list
(** The batch executor must serve the sequential streaming answer under
    every serving regime: cold and cache-warm, sequentially (jobs=1)
    and from a 4-domain pool — in particular the cache key must keep
    ranked entries apart from unranked ones. *)

val expired_deadline : unit -> Xks_robust.Budget.t
(** A budget whose fake clock is already past its deadline: a search
    under it degrades at its first tick. *)

val check_budgeted :
  ?tag:string -> ?rank:Xks_core.Engine.rank_mode -> ?k:int -> what:string ->
  Xks_core.Engine.t -> string list -> Xks_robust.Budget.t ->
  Invariant.violation list
(** Rule [ladder] on one budgeted search: the answer is the one its tag
    names.  Untagged, it must equal the unbudgeted ValidRTF answer;
    tagged, the unbudgeted [Maxmatch_original] answer (same [rank] and
    [k]).  [what] names the budget in the violation. *)

val check_ladder :
  ?tag:string -> ?k:int -> Xks_core.Engine.t -> string list ->
  Invariant.violation list
(** {!check_budgeted} in the heuristic and BM25 top-[k] modes, under an
    unlimited budget (which measures the query's full charge), a node
    budget of half that charge, and {!expired_deadline}. *)

val check_workload :
  ?k:int -> Xks_core.Engine.t -> string list list ->
  Invariant.violation list
(** {!check_query} and {!check_ladder} on every query, then
    {!check_batch} over the whole workload. *)
