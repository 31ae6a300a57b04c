(** Batch query execution over a {!Pool} of worker domains, fronted by
    the sharded {!Cache} of query results.

    Queries in a batch are independent: each one sees exactly the
    sequential {!Xks_core.Engine.search_result} semantics — same hits,
    same order, same per-query budget and degradation — whatever the
    pool size.  The engine's document tree and inverted index are
    immutable after construction (see {!Xks_index.Inverted}), so workers
    share them read-only; every piece of mutable per-query state
    (query, pruning, budget) lives on the domain that runs the query. *)

module Pool = Pool
module Cache = Cache

type budget_spec = { deadline_ms : int option; max_nodes : int option }
(** A budget {e recipe}: {!Xks_robust.Budget.t} is single-domain mutable
    state, so the batch API takes the limits and materialises a fresh
    budget per query on the worker domain that runs it (the deadline
    clock starts when the query starts, as in a sequential loop). *)

val budget_class_of : budget_spec option -> string
(** The cache budget-class string of a spec — {!Cache.unbudgeted} for
    [None] or an empty spec, ["t<ms>:n<nodes>"] otherwise (["-"] for an
    absent limit).  Queries run under equal limits share cache entries;
    budgeted and unbudgeted runs never mix. *)

val search_batch_results :
  ?pool:Pool.t -> ?cache:Cache.t -> ?algorithm:Xks_core.Engine.algorithm ->
  ?cid_mode:Xks_index.Cid.mode -> ?rank:Xks_core.Engine.rank_mode ->
  ?k:int -> ?budget:budget_spec ->
  Xks_core.Engine.t -> string list list -> Xks_core.Engine.search_result array
(** Run a batch of queries; result [i] answers query [i] (input order,
    regardless of completion order).  With a [pool] the queries fan out
    over its workers; without one they run sequentially on the calling
    domain.  With a [cache], each query is first looked up (and its
    computed result inserted on a miss, unless a deadline degraded it:
    that answer depends on time, not on the key); [rank] and [k] are
    part of the cache key, so ranked and unranked runs of the same
    keywords never share entries.  A query that raises — e.g. an
    empty keyword list — aborts the batch with {!Pool.Task_error} (the
    raw exception when no pool is used) after all tasks finish. *)

val search_batch :
  ?pool:Pool.t -> ?cache:Cache.t -> ?algorithm:Xks_core.Engine.algorithm ->
  ?cid_mode:Xks_index.Cid.mode -> ?rank:Xks_core.Engine.rank_mode ->
  ?k:int -> Xks_core.Engine.t -> string list list ->
  Xks_core.Engine.hit list array
(** {!search_batch_results}' hit lists, unbudgeted: a budgeted batch
    goes through {!search_batch_results}, whose results say which
    answers degraded. *)
