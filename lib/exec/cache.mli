(** Sharded LRU cache of whole query results, with read-mostly shards.

    Keys capture everything that determines a search answer: the engine
    {e instance} ({!Xks_core.Engine.id} — a rebuilt or reloaded index
    makes a new engine, so entries cached for the old one can never be
    served), the normalised keyword set (sorted and deduplicated, since
    {!Xks_core.Engine.search} is order- and duplicate-invariant), the
    algorithm, the ranking parameters (rank mode and top-k limit), and
    a budget class string.  Values are whole
    {!Xks_core.Engine.search_result}s, shared structurally — they are
    immutable.

    The table is split into N independent shards, each behind a
    {!Rwlock}: lookups run in a shared read section (concurrent pool
    workers hitting one shard overlap instead of serializing), while
    insert, evict and clear take the exclusive write lock.  Recency is
    tracked by per-entry atomic stamps from a global atomic clock — a
    hit is an atomic store, not linked-list surgery — and eviction
    scans the shard for the minimum stamp under the write lock, so
    eviction order is exactly least-recently-accessed.  Capacity is
    approximate bytes, split evenly across shards.  Every lookup and
    eviction ticks the {!Xks_trace.Trace} cache counters as well as the
    cache's own {!stats}.

    A key is hashed once, when {!key} builds it, and that hash picks
    both the shard and the bucket.  It is [Hashtbl.hash] of a record of
    the six key fields, the value keys hashed to before they carried a
    hash, so every key keeps its shard and bucket and hits, misses and
    evictions replay identically.  The shard tables compare keys field
    by field ([Int.equal], [String.equal]), never with the polymorphic
    [compare].  {!find} takes the shard's read latch inline, without
    allocating a closure, and releases it on every path, also when the
    lookup or the [instrument] hook raises. *)

type key = private {
  engine_id : int;
  words : string list;  (** normalised, sorted, distinct *)
  algorithm : string;
  rank : string;  (** rank-mode name: "heuristic", "bm25" or "doc" *)
  k : int;  (** top-k limit; [0] = unlimited *)
  budget_class : string;
  hash : int;
      (** [Hashtbl.hash] of the six fields above as one record, computed
          once by {!key}; it picks both the shard and the bucket *)
}

val unbudgeted : string
(** The budget class of an ungoverned query ("unbudgeted"). *)

val key :
  engine:Xks_core.Engine.t -> algorithm:Xks_core.Engine.algorithm ->
  ?rank:Xks_core.Engine.rank_mode -> ?k:int ->
  budget_class:string -> string list -> key option
(** Normalise a raw query into its cache key: tokenise every input
    string ({!Xks_xml.Tokenizer.words}, stop words kept — mirroring
    {!Xks_core.Query.make}), deduplicate and sort.  [rank] (default
    [`Heuristic], the engine's default) and [k] (default unlimited)
    must match what the engine will be asked to do: keys of differently
    ranked or truncated runs never collide.  [None] when no keyword
    survives (such a query raises in the engine and must not be
    cached). *)

type t

type access = Lock | Unlock | Rlock | Runlock | Read | Write
(** One instrumented shard access, as reported to [instrument]:
    [Lock]/[Unlock] bracket an exclusive write section,
    [Rlock]/[Runlock] a shared read section (several may overlap on one
    shard — that is the design), and [Read]/[Write] are accesses to the
    shard's guarded state inside whichever section is open.  Consumed
    by [Xks_check.Race] to replay the journal against the
    reader/writer-lock invariant: a [Write] needs the write section, a
    [Read] either kind, and write sections may never overlap anything. *)

val create :
  ?shards:int -> ?instrument:(int -> access -> unit) -> max_bytes:int ->
  unit -> t
(** A cache of at most ~[max_bytes] (approximate accounting) split over
    [shards] (default 8, rounded up to a power of two) independent
    shards.  When [instrument] is given it is called as
    [instrument shard_index access] from inside every cache operation
    (section events from the locking wrappers themselves, [Read]/[Write]
    between them); it runs on the calling domain with the section still
    open, so it must be cheap and must not call back into the cache.
    @raise Invalid_argument on [shards < 1] or negative [max_bytes]. *)

val shard_count : t -> int

val shard_index : t -> key -> int
(** The shard a key hashes to (in [0, shard_count)).  Exposed so tests
    can construct deliberate shard collisions for contention stress. *)

val find : t -> key -> Xks_core.Engine.search_result option
(** Lookup; a hit refreshes the entry's LRU stamp.  Runs in a shared
    read section — concurrent [find]s on one shard do not serialize.
    Ticks {!Xks_trace.Trace.Cache_hits} / [Cache_misses]. *)

val add : t -> key -> Xks_core.Engine.search_result -> unit
(** Insert (or refresh) an entry, evicting least-recently-used entries
    of the same shard while over capacity.  A result costlier than a
    whole shard is not cached at all. *)

val clear : t -> unit
(** Drop every entry (stat counters are kept). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** live entries across all shards *)
  bytes : int;  (** approximate live bytes across all shards *)
}

val stats : t -> stats
(** Cumulative hit/miss/eviction counts and a live-size snapshot. *)
