(* Sharded LRU cache of whole query results, with read-mostly shards.

   The key identifies everything that determines a search answer: the
   engine instance (by its process-unique id — a rebuilt or reloaded
   index makes a new engine, so stale entries can never be served), the
   normalised keyword *set* (sorted, deduplicated — Engine.search is
   order- and duplicate-invariant), the algorithm, the ranking
   parameters (rank mode and k — a ranked top-k query must never be
   served a stale unranked entry and vice versa), and a budget class
   (two queries governed by the same limits share an entry; an
   unbudgeted query never shares with a budgeted one).

   Concurrency: N independent shards, each behind a [Rwlock].  Lookups
   — the overwhelmingly common operation on a warm cache — run in a
   shared read section, so concurrent pool workers hitting the same
   shard no longer serialize; only insert, evict and clear take the
   exclusive write lock.  What makes the read path read-only is the LRU
   representation: instead of a doubly-linked recency list (whose
   find-time unlink/push-front surgery forced every lookup to be a
   writer), each entry carries an atomic stamp from a cache-global
   atomic clock.  A hit bumps the entry's stamp — an atomic store,
   legal under the shared latch — and eviction scans the shard for the
   minimum stamp while holding the write lock (shards are small, and
   eviction already pays a hash-table delete).  Stamps strictly
   increase, so eviction order is exactly least-recently-accessed, as
   the LRU tests pin.

   Capacity is split evenly across shards and accounted in approximate
   bytes.  The lock discipline is machine-checked two ways: statically
   by xksrace (the guarded_by/requires_lock/locks annotations below)
   and dynamically by Xks_check.Race over the journal produced through
   [instrument], whose replay understands overlapping read sections. *)

module Engine = Xks_core.Engine
module Fragment = Xks_core.Fragment
module Trace = Xks_trace.Trace
module Tokenizer = Xks_xml.Tokenizer

type key = {
  engine_id : int;
  words : string list;  (* normalised, sorted, distinct *)
  algorithm : string;
  rank : string;
  k : int;  (* 0 = unlimited (no top-k truncation) *)
  budget_class : string;
  hash : int;  (* of the six fields above, computed once by [key] *)
}

let algorithm_name = function
  | Engine.Validrtf -> "validrtf"
  | Engine.Maxmatch -> "maxmatch"
  | Engine.Maxmatch_original -> "maxmatch_original"

let rank_name = function
  | `Heuristic -> "heuristic"
  | `Bm25 -> "bm25"
  | `Doc -> "doc"

let unbudgeted = "unbudgeted"

let key ~engine ~algorithm ?(rank = `Heuristic) ?k ~budget_class ws =
  let acc = ref [] in
  let add w = acc := w :: !acc in
  List.iter (Tokenizer.iter_words ~keep_stopwords:true add) ws;
  let words = List.sort_uniq String.compare !acc in
  match words with
  | [] -> None
  | _ :: _ ->
      let engine_id = Engine.id engine
      and algorithm = algorithm_name algorithm
      and rank = rank_name rank
      and k = match k with None -> 0 | Some k -> k in
      (* A six-field tuple is the same block as a record of the six key
         fields, so this is the hash a key hashed before it carried one:
         every key keeps its shard and its bucket. *)
      let hash =
        Hashtbl.hash (engine_id, words, algorithm, rank, k, budget_class)
      in
      Some { engine_id; words; algorithm; rank; k; budget_class; hash }

(* Keys are hashed once, by [key], and compared field by field. *)
module Table = Hashtbl.Make (struct
  type t = key

  let equal a b =
    Int.equal a.hash b.hash
    && Int.equal a.engine_id b.engine_id
    && Int.equal a.k b.k
    && List.equal String.equal a.words b.words
    && String.equal a.algorithm b.algorithm
    && String.equal a.rank b.rank
    && String.equal a.budget_class b.budget_class

  let hash k = k.hash
end)

type node = {
  nkey : key;
  value : Engine.search_result;
  cost : int;
  stamp : int Atomic.t;  (* global-clock tick of the last access *)
}

type access = Lock | Unlock | Rlock | Runlock | Read | Write

type shard = {
  idx : int;
  lock : Rwlock.t;
  capacity : int;
  table : node Table.t;  (* xksrace: guarded_by lock *)
  mutable bytes : int;  (* xksrace: guarded_by lock *)
}

type t = {
  shards : shard array;
  mask : int;
  clock : int Atomic.t;  (* LRU stamp source, shared by all shards *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  instrument : (int -> access -> unit) option;
}

let rec power_of_two target acc =
  if acc >= target then acc else power_of_two target (acc * 2)

let create ?(shards = 8) ?instrument ~max_bytes () =
  if shards < 1 then invalid_arg "Cache.create: shards must be >= 1";
  if max_bytes < 0 then invalid_arg "Cache.create: negative capacity";
  let n = power_of_two shards 1 in
  let capacity = max_bytes / n in
  {
    shards =
      Array.init n (fun idx ->
          {
            idx;
            lock = Rwlock.create ();
            table = Table.create 64;
            bytes = 0;
            capacity;
          });
    mask = n - 1;
    clock = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    instrument;
  }

let shard_count t = Array.length t.shards
let shard_index t k = k.hash land t.mask
let shard_of t k = t.shards.(shard_index t k)

let observe t s a =
  match t.instrument with
  | None -> ()
  | Some f -> f s.idx a

(* Approximate heap footprint of a cached result, in bytes: per-hit
   record overhead plus the fragment's node set.  Only relative sizes
   matter — the knob is --cache-mb, not an exact accounting. *)
let cost_of (r : Engine.search_result) =
  List.fold_left
    (fun acc (h : Engine.hit) -> acc + 160 + (24 * Fragment.size h.fragment))
    128 r.hits

(* The two locking wrappers.  [read_locked] sections may overlap each
   other (that is the point); they must only read the guarded shard
   state — plus atomic stamp bumps, which need no latch of their own.
   [write_locked] is exclusive, as the old per-shard mutex was. *)

(* The instrument hook is arbitrary user code: it may raise (the fault
   suite's hooks do, deliberately).  Every [observe] inside a lock
   section therefore runs where a raise still releases the latch —
   including the unlock-side observe, which must not be able to skip
   the unlock itself.  The release event is journalled before the
   actual unlock so replay never sees a write overlapping a section
   that was still read-held. *)

(* Journal the release of [s]'s read section, then release its latch
   [lock] (that is, [s.lock]), also when the hook raises. *)
(* xksleak: releases lock *)
let read_release t s lock =
  match observe t s Runlock with
  | () -> Rwlock.read_unlock lock
  | exception e ->
      Rwlock.read_unlock lock;
      raise e

(* xksrace: locks lock *)
let read_locked t s f =
  Rwlock.read_lock s.lock;
  match
    observe t s Rlock;
    f ()
  with
  | r ->
      read_release t s s.lock;
      r
  | exception e ->
      read_release t s s.lock;
      raise e

(* xksrace: locks lock *)
let write_locked t s f =
  Rwlock.write_lock s.lock;
  Fun.protect
    ~finally:(fun () ->
      Fun.protect
        ~finally:(fun () -> Rwlock.write_unlock s.lock)
        (fun () -> observe t s Unlock))
    (fun () ->
      observe t s Lock;
      f ())

(* The lookup proper, inside a read section. *)
(* xksrace: requires_lock lock *)
let lookup t s k =
  match Table.find_opt s.table k with
  | None -> None
  | Some n ->
      (* LRU refresh without list surgery: bump the entry's stamp to the
         next global clock tick.  Concurrent hits on the same entry race
         to the newer tick — either order is a correct recency. *)
      Atomic.set n.stamp (Atomic.fetch_and_add t.clock 1);
      Some n.value

let find t k =
  let s = shard_of t k in
  (* [read_locked]'s section with the lookup written in, so that a
     lookup allocates no closure. *)
  Rwlock.read_lock s.lock;
  let result =
    match
      observe t s Rlock;
      observe t s Read;
      lookup t s k
    with
    | r ->
        read_release t s s.lock;
        r
    | exception e ->
        read_release t s s.lock;
        raise e
  in
  (match result with
  | Some _ ->
      Atomic.incr t.hits;
      Trace.incr Trace.Cache_hits
  | None ->
      Atomic.incr t.misses;
      Trace.incr Trace.Cache_misses);
  result

(* Evict the least-recently-stamped entry; caller holds the write
   lock, which excludes the readers that bump stamps, so the scan is
   stable. *)
(* xksrace: requires_lock lock *)
let evict_lru s =
  let victim =
    Table.fold
      (fun _ n best ->
        match best with
        | Some b when Atomic.get b.stamp <= Atomic.get n.stamp -> best
        | Some _ | None -> Some n)
      s.table None
  in
  match victim with
  | None -> assert false (* bytes > 0 ⇒ an entry exists *)
  | Some v ->
      Table.remove s.table v.nkey;
      s.bytes <- s.bytes - v.cost

let add t k value =
  let s = shard_of t k in
  let cost = cost_of value in
  if cost <= s.capacity then begin
    let evicted =
      write_locked t s (fun () ->
          observe t s Write;
          (match Table.find_opt s.table k with
          | Some old ->
              Table.remove s.table k;
              s.bytes <- s.bytes - old.cost
          | None -> ());
          let n =
            {
              nkey = k;
              value;
              cost;
              stamp = Atomic.make (Atomic.fetch_and_add t.clock 1);
            }
          in
          Table.replace s.table k n;
          s.bytes <- s.bytes + cost;
          let count = ref 0 in
          while s.bytes > s.capacity do
            evict_lru s;
            incr count
          done;
          !count)
    in
    if evicted > 0 then begin
      ignore (Atomic.fetch_and_add t.evictions evicted : int);
      Trace.add Trace.Cache_evictions evicted
    end
  end

let clear t =
  Array.iter
    (fun s ->
      write_locked t s (fun () ->
          observe t s Write;
          Table.reset s.table;
          s.bytes <- 0))
    t.shards

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
}

let stats t =
  let entries = ref 0 and bytes = ref 0 in
  Array.iter
    (fun s ->
      read_locked t s (fun () ->
          observe t s Read;
          entries := !entries + Table.length s.table;
          bytes := !bytes + s.bytes))
    t.shards;
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    evictions = Atomic.get t.evictions;
    entries = !entries;
    bytes = !bytes;
  }
