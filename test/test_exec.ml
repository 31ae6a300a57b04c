(* Batch execution layer (lib/exec): worker pool, sharded result
   cache, and jobs=4 determinism against the sequential engine. *)

module Engine = Xks_core.Engine
module Exec = Xks_exec.Exec
module Pool = Xks_exec.Pool
module Cache = Xks_exec.Cache
module Deque = Xks_exec.Deque
module Race = Xks_check.Race
module Trace = Xks_trace.Trace
module Fixtures = Xks_datagen.Paper_fixtures
module Inverted = Xks_index.Inverted

(* --- Deque --- *)

let test_deque_empty () =
  let d : int Deque.t = Deque.create () in
  Alcotest.(check bool) "fresh deque is empty" true (Deque.is_empty d);
  Alcotest.(check int) "fresh deque length" 0 (Deque.length d);
  Alcotest.(check (option int)) "pop on empty" None (Deque.pop d);
  Alcotest.(check (option int)) "steal on empty" None (Deque.steal d);
  (* Emptying and refilling must not confuse the ring indices. *)
  Deque.push d 1;
  Alcotest.(check (option int)) "single element pops" (Some 1) (Deque.pop d);
  Alcotest.(check (option int)) "steal after drain" None (Deque.steal d)

let test_deque_owner_lifo_thief_fifo () =
  let d : int Deque.t = Deque.create ~capacity:2 () in
  List.iter (Deque.push d) [ 1; 2; 3; 4; 5 ] (* forces a ring grow *);
  Alcotest.(check int) "five queued" 5 (Deque.length d);
  (* The owner works the bottom: freshest first. *)
  Alcotest.(check (option int)) "owner pops newest" (Some 5) (Deque.pop d);
  (* Thieves work the top: oldest first, in submission order. *)
  Alcotest.(check (option int)) "thief steals oldest" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "thief steals next oldest" (Some 2)
    (Deque.steal d);
  Alcotest.(check (option int)) "owner still sees its newest" (Some 4)
    (Deque.pop d);
  Alcotest.(check (option int)) "last element from either end" (Some 3)
    (Deque.steal d);
  Alcotest.(check bool) "drained" true (Deque.is_empty d)

(* --- Pool --- *)

let test_pool_preserves_order () =
  Pool.with_pool ~size:3 (fun p ->
      let results =
        Pool.run_all p (List.init 20 (fun i () -> i * i))
      in
      Alcotest.(check (array int)) "input order"
        (Array.init 20 (fun i -> i * i))
        results)

let test_pool_propagates_exception () =
  Pool.with_pool ~size:2 (fun p ->
      let ran = Atomic.make 0 in
      let thunks =
        List.init 8 (fun i () ->
            Atomic.incr ran;
            if i = 3 then failwith "task 3 boom";
            i)
      in
      (match Pool.run_all p thunks with
      | _ -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error (Failure msg) ->
          Alcotest.(check string) "wrapped exception" "task 3 boom" msg
      | exception e -> raise e);
      (* The batch still ran every task before re-raising. *)
      Alcotest.(check int) "all tasks ran" 8 (Atomic.get ran))

let test_pool_rejects_after_shutdown () =
  let p = Pool.create ~size:1 () in
  Pool.shutdown p;
  Alcotest.check_raises "second shutdown" Pool.Pool_closed (fun () ->
      Pool.shutdown p);
  Alcotest.check_raises "submit after shutdown" Pool.Pool_closed (fun () ->
      Pool.submit p (fun () -> ()));
  Alcotest.check_raises "run_all after shutdown" Pool.Pool_closed (fun () ->
      ignore (Pool.run_all p [ (fun () -> ()) ]))

(* Concurrent shutdown callers: exactly one joins the workers and
   returns; every loser gets the deterministic [Pool_closed], never a
   silent success overlapping a pool that is still draining. *)
let test_pool_concurrent_shutdown () =
  for _ = 1 to 20 do
    let p = Pool.create ~size:2 () in
    let callers = 4 in
    let outcomes =
      List.init callers (fun _ ->
          Domain.spawn (fun () ->
              match Pool.shutdown p with
              | () -> `Won
              | exception Pool.Pool_closed -> `Lost))
      |> List.map Domain.join
    in
    let winners =
      List.length (List.filter (fun o -> o = `Won) outcomes)
    in
    Alcotest.(check int) "exactly one winner" 1 winners;
    Alcotest.(check int) "everyone else lost" (callers - 1)
      (List.length (List.filter (fun o -> o = `Lost) outcomes))
  done

let test_pool_rejects_zero_size () =
  Alcotest.check_raises "size 0"
    (Invalid_argument "Pool.create: size must be >= 1") (fun () ->
      ignore (Pool.create ~size:0 ()))

let test_pool_caps_at_domain_count () =
  let host = max 1 (Domain.recommended_domain_count ()) in
  let p = Pool.create ~size:(host + 7) () in
  Alcotest.(check int) "capped at the host's domains" host (Pool.size p);
  Pool.shutdown p;
  let p = Pool.create ~size:(host + 7) ~oversubscribe:true () in
  Alcotest.(check int) "oversubscribe keeps the requested size" (host + 7)
    (Pool.size p);
  Pool.shutdown p

(* Order is an input-slot contract, not a completion-order accident:
   uneven task durations on an oversubscribed pool force thieves to
   run slices of other workers' chunks, and result [i] must still be
   thunk [i]'s value. *)
let test_pool_run_all_order_under_stealing () =
  Pool.with_pool ~size:4 ~oversubscribe:true (fun p ->
      let n = 64 in
      let results =
        Pool.run_all p
          (List.init n (fun i () ->
               (* Every 7th task is heavy, so its owner's deque backs up
                  and the idle workers steal the rest of the chunk. *)
               if i mod 7 = 0 then begin
                 let acc = ref 0 in
                 for k = 1 to 200_000 do
                   acc := (!acc + k) land 0xFFFF
                 done;
                 ignore !acc
               end;
               i * 3))
      in
      Alcotest.(check (array int)) "input order despite stealing"
        (Array.init n (fun i -> i * 3))
        results)

(* Regression: [run_all] racing a concurrent [shutdown] must end in
   [Pool_closed], never a hang.  The original queue woke sleeping
   workers but not a [run_all] caller already waiting on results that
   no worker would ever take. *)
let test_pool_run_all_vs_concurrent_shutdown () =
  for _ = 1 to 10 do
    let p = Pool.create ~size:1 ~oversubscribe:true () in
    let started = Semaphore.Binary.make false in
    let release = Semaphore.Binary.make false in
    (* Pin the only worker so the shutdown below stays in flight while
       the prober races it. *)
    Pool.submit p (fun () ->
        Semaphore.Binary.release started;
        Semaphore.Binary.acquire release);
    Semaphore.Binary.acquire started;
    let prober =
      Domain.spawn (fun () ->
          let rec probe n =
            match Pool.run_all p [ (fun () -> n) ] with
            | _ -> probe (n + 1)
            | exception Pool.Pool_closed -> ()
          in
          probe 0)
    in
    let closer = Domain.spawn (fun () -> Pool.shutdown p) in
    Semaphore.Binary.release release;
    (* Both must return: the closer joins the unpinned worker, and the
       prober observes Pool_closed in bounded time. *)
    Domain.join closer;
    Domain.join prober
  done

(* Shutdown drains: every job already queued runs before the workers
   exit, even the ones sitting in deques behind a slow first job. *)
let test_pool_shutdown_drains_deques () =
  let ran = Atomic.make 0 in
  let n = 40 in
  let p = Pool.create ~size:2 ~oversubscribe:true () in
  for i = 1 to n do
    Pool.submit p (fun () ->
        (* The first job dawdles so most of the batch is still queued
           when shutdown is called. *)
        if i = 1 then begin
          let acc = ref 0 in
          for k = 1 to 2_000_000 do
            acc := (!acc + k) land 0xFFFF
          done;
          ignore !acc
        end;
        Atomic.incr ran)
  done;
  Pool.shutdown p;
  Alcotest.(check int) "every queued job ran before exit" n (Atomic.get ran)

(* --- Cache --- *)

let engine_xml = "<r><a>xml search</a><b>xml</b><c>keyword</c></r>"
let mk_engine () = Engine.of_string engine_xml

let mk_key engine words =
  match
    Cache.key ~engine ~algorithm:Engine.Validrtf
      ~budget_class:Cache.unbudgeted words
  with
  | Some k -> k
  | None -> Alcotest.fail "expected a cache key"

(* An empty result costs the fixed per-result overhead (128 bytes in
   the cache's accounting) — handy for exact eviction tests. *)
let empty_result = { Engine.hits = []; degraded = None }

let test_key_normalisation () =
  let engine = mk_engine () in
  let k1 = mk_key engine [ "XML"; "Search"; "xml" ] in
  let k2 = mk_key engine [ "search"; "xml" ] in
  Alcotest.(check bool) "order and duplicates collapse" true (k1 = k2);
  let k3 = mk_key engine [ "search"; "xml"; "keyword" ] in
  Alcotest.(check bool) "distinct keyword sets differ" false (k1 = k3);
  Alcotest.(check bool) "no surviving keyword"
    true
    (Cache.key ~engine ~algorithm:Engine.Validrtf
       ~budget_class:Cache.unbudgeted [ " "; "" ]
    = None)

(* A key's hash is [Hashtbl.hash] of a record of its six fields, the
   record keys were before they carried their hash: every key keeps the
   shard and the bucket it had, so hits, misses and evictions replay
   identically. *)
type six_field_key = {
  engine_id : int;
  words : string list;
  algorithm : string;
  rank : string;
  k : int;
  budget_class : string;
}

let test_key_hash_unchanged () =
  let engine = mk_engine () in
  let cache = Cache.create ~shards:8 ~max_bytes:(1024 * 1024) () in
  List.iter
    (fun (ws, rank, k, budget_class) ->
      match
        Cache.key ~engine ~algorithm:Engine.Validrtf ?rank ?k ~budget_class ws
      with
      | None -> Alcotest.fail "expected a cache key"
      | Some key ->
          let record =
            {
              engine_id = key.Cache.engine_id;
              words = key.Cache.words;
              algorithm = key.Cache.algorithm;
              rank = key.Cache.rank;
              k = key.Cache.k;
              budget_class = key.Cache.budget_class;
            }
          in
          Alcotest.(check int) "hash of the six-field record"
            (Hashtbl.hash record) key.Cache.hash;
          Alcotest.(check int) "shard from that hash"
            (Hashtbl.hash record land 7) (Cache.shard_index cache key))
    [
      ([ "xml" ], None, None, Cache.unbudgeted);
      ([ "Search"; "xml"; "XML" ], Some `Bm25, Some 10, "t200:n-");
      ([ "a"; "b"; "c"; "d"; "e"; "f"; "g" ], Some `Doc, None, "t-:n500");
    ]

let test_key_stale_invalidation () =
  (* A reloaded/rebuilt index makes a new engine; its keys can never
     collide with the old engine's entries. *)
  let e1 = mk_engine () in
  let e2 =
    Engine.of_index (Inverted.build (Xks_xml.Parser.parse_string engine_xml))
  in
  let cache = Cache.create ~max_bytes:(1024 * 1024) () in
  Cache.add cache (mk_key e1 [ "xml" ]) empty_result;
  Alcotest.(check bool) "old engine hits" true
    (Cache.find cache (mk_key e1 [ "xml" ]) <> None);
  Alcotest.(check bool) "new engine misses" true
    (Cache.find cache (mk_key e2 [ "xml" ]) = None)

let test_key_rank_params () =
  (* Rank mode and top-k limit are part of the key: ranked and
     truncated runs of the same keywords never collide. *)
  let engine = mk_engine () in
  let key ?rank ?k words =
    match
      Cache.key ~engine ~algorithm:Engine.Validrtf ?rank ?k
        ~budget_class:Cache.unbudgeted words
    with
    | Some key -> key
    | None -> Alcotest.fail "expected a cache key"
  in
  let plain = key [ "xml" ] in
  let ranked = key ~rank:`Bm25 [ "xml" ] in
  let truncated = key ~rank:`Bm25 ~k:10 [ "xml" ] in
  Alcotest.(check bool) "rank mode distinguishes keys" false (plain = ranked);
  Alcotest.(check bool) "k distinguishes keys" false (ranked = truncated);
  Alcotest.(check bool) "explicit default rank collides with implicit" true
    (plain = key ~rank:`Heuristic [ "xml" ]);
  (* Alternating ranked and unranked batches for the same keywords
     through one cache: each mode must hit its own entry, never a
     stale answer cached under the other mode. *)
  let cache = Cache.create ~max_bytes:(1024 * 1024) () in
  let q = [ "xml" ] in
  let expect_plain = (Engine.search_result engine q).Engine.hits in
  let expect_top1 =
    (Engine.search_result ~rank:`Bm25 ~k:1 engine q).Engine.hits
  in
  Alcotest.(check bool) "top-1 differs from the unranked answer" false
    (expect_plain = expect_top1);
  for _round = 1 to 3 do
    (match Exec.search_batch ~cache engine [ q ] with
    | [| hits |] ->
        Alcotest.(check bool) "unranked round served unranked" true
          (hits = expect_plain)
    | _ -> Alcotest.fail "one result expected");
    match Exec.search_batch ~cache ~rank:`Bm25 ~k:1 engine [ q ] with
    | [| hits |] ->
        Alcotest.(check bool) "ranked round served top-1" true
          (hits = expect_top1)
    | _ -> Alcotest.fail "one result expected"
  done

let test_cache_hit_miss_counters () =
  let engine = mk_engine () in
  let cache = Cache.create ~max_bytes:(1024 * 1024) () in
  let k = mk_key engine [ "xml" ] in
  let t = Trace.create () in
  Trace.with_current t (fun () ->
      Alcotest.(check bool) "cold miss" true (Cache.find cache k = None);
      Cache.add cache k empty_result;
      Alcotest.(check bool) "warm hit" true (Cache.find cache k <> None));
  let s = Cache.stats cache in
  Alcotest.(check int) "stats hits" 1 s.Cache.hits;
  Alcotest.(check int) "stats misses" 1 s.Cache.misses;
  Alcotest.(check int) "trace cache_hits" 1 (Trace.counter t Trace.Cache_hits);
  Alcotest.(check int) "trace cache_misses" 1
    (Trace.counter t Trace.Cache_misses)

let test_cache_lru_eviction_order () =
  let engine = mk_engine () in
  (* One shard, room for exactly two empty results (128 bytes each). *)
  let cache = Cache.create ~shards:1 ~max_bytes:300 () in
  let ka = mk_key engine [ "a" ]
  and kb = mk_key engine [ "b" ]
  and kc = mk_key engine [ "c" ] in
  Cache.add cache ka empty_result;
  Cache.add cache kb empty_result;
  (* Refresh a so b is now the least recently used... *)
  Alcotest.(check bool) "a hit" true (Cache.find cache ka <> None);
  Cache.add cache kc empty_result;
  Alcotest.(check bool) "b evicted" true (Cache.find cache kb = None);
  Alcotest.(check bool) "a kept" true (Cache.find cache ka <> None);
  Alcotest.(check bool) "c kept" true (Cache.find cache kc <> None);
  let s = Cache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check int) "two live entries" 2 s.Cache.entries

let test_cache_oversized_not_cached () =
  let engine = mk_engine () in
  let cache = Cache.create ~shards:1 ~max_bytes:100 () in
  let k = mk_key engine [ "xml" ] in
  Cache.add cache k empty_result (* 128 bytes > 100-byte shard *);
  Alcotest.(check int) "nothing stored" 0 (Cache.stats cache).Cache.entries

let test_cache_shard_independence () =
  let engine = mk_engine () in
  let cache = Cache.create ~shards:4 ~max_bytes:(4 * 300) () in
  Alcotest.(check int) "shard count" 4 (Cache.shard_count cache);
  (* Many keys spread over shards; each shard holds two 128-byte
     entries, so 16 inserts keep at most 8 but well over 2 — eviction
     pressure in one shard does not wipe the others. *)
  List.iter
    (fun i -> Cache.add cache (mk_key engine [ "w" ^ string_of_int i ]) empty_result)
    (List.init 16 Fun.id);
  let s = Cache.stats cache in
  Alcotest.(check bool) "entries spread beyond one shard" true
    (s.Cache.entries > 2);
  Cache.clear cache;
  Alcotest.(check int) "clear drops everything" 0
    (Cache.stats cache).Cache.entries;
  Alcotest.(check int) "clear keeps counters"
    s.Cache.evictions
    (Cache.stats cache).Cache.evictions

(* Deep LRU stability: with three resident entries and promotions
   between evictions, the victim must always be the least-recently
   *accessed* entry, never insertion order. *)
let test_cache_eviction_order_deep () =
  let engine = mk_engine () in
  (* One shard, room for exactly three 128-byte empty results. *)
  let cache = Cache.create ~shards:1 ~max_bytes:384 () in
  let key w = mk_key engine [ w ] in
  let k1 = key "alpha" and k2 = key "beta" and k3 = key "gamma" in
  let k4 = key "delta" and k5 = key "epsilon" in
  Cache.add cache k1 empty_result;
  Cache.add cache k2 empty_result;
  Cache.add cache k3 empty_result;
  Alcotest.(check int) "three entries fit" 3 (Cache.stats cache).Cache.entries;
  (* Promote k2 over k1, then insert k4: the victim is k1. *)
  Alcotest.(check bool) "promote k2" true (Cache.find cache k2 <> None);
  Cache.add cache k4 empty_result;
  Alcotest.(check bool) "k1 (least recent) evicted" true
    (Cache.find cache k1 = None);
  (* Promote k2 and k3 over k4, then insert k5: the victim is k4 even
     though it is the youngest insertion. *)
  Alcotest.(check bool) "k2 kept" true (Cache.find cache k2 <> None);
  Alcotest.(check bool) "k3 kept" true (Cache.find cache k3 <> None);
  Cache.add cache k5 empty_result;
  Alcotest.(check bool) "k4 evicted despite youngest insert" true
    (Cache.find cache k4 = None);
  Alcotest.(check bool) "k5 resident" true (Cache.find cache k5 <> None);
  let s = Cache.stats cache in
  Alcotest.(check int) "two evictions" 2 s.Cache.evictions;
  Alcotest.(check int) "byte accounting tracks entries" (128 * s.Cache.entries)
    s.Cache.bytes

(* Contention stress: 4 domains hammer keys that all collide on one
   shard (plus periodic clears and stats snapshots), then the global
   accounting must balance exactly — every lookup was either a hit or
   a miss, and bytes never went negative. *)
let test_cache_contention_stress () =
  let engine = mk_engine () in
  let cache = Cache.create ~shards:4 ~max_bytes:(1024 * 1024) () in
  let candidates =
    List.init 64 (fun i -> mk_key engine [ Printf.sprintf "w%d" i ])
  in
  let target =
    match candidates with
    | k :: _ -> Cache.shard_index cache k
    | [] -> Alcotest.fail "no candidate keys"
  in
  let keys =
    List.filter (fun k -> Cache.shard_index cache k = target) candidates
  in
  Alcotest.(check bool) "several keys collide on one shard" true
    (List.length keys >= 4);
  let lookups = Atomic.make 0 in
  let negative_bytes = Atomic.make false in
  let rounds = 60 in
  Pool.with_pool ~size:4 ~oversubscribe:true (fun p ->
      ignore
        (Pool.run_all p
           (List.init 4 (fun d () ->
                for r = 1 to rounds do
                  List.iteri
                    (fun i k ->
                      Atomic.incr lookups;
                      (match Cache.find cache k with
                      | Some _ -> ()
                      | None -> Cache.add cache k empty_result);
                      (* Periodic cross-shard churn from every domain:
                         clear takes each shard lock in turn, stats
                         snapshots them under contention. *)
                      if (r + i + d) mod 17 = 0 then Cache.clear cache;
                      if (i + d) mod 5 = 0 then begin
                        let s = Cache.stats cache in
                        if s.Cache.bytes < 0 then
                          Atomic.set negative_bytes true
                      end)
                    keys
                done))
         : unit array));
  let s = Cache.stats cache in
  Alcotest.(check bool) "bytes never negative" false
    (Atomic.get negative_bytes);
  Alcotest.(check bool) "final bytes non-negative" true (s.Cache.bytes >= 0);
  Alcotest.(check int) "hits + misses = lookups" (Atomic.get lookups)
    (s.Cache.hits + s.Cache.misses);
  Alcotest.(check int) "byte accounting balances" (128 * s.Cache.entries)
    s.Cache.bytes

(* Dynamic lock-discipline replay of the read-mostly path: 4 domains
   drive a 2-shard instrumented cache through a hit-heavy mix (plus
   inserts and clears for write sections), then the journal must replay
   clean — overlapping read sections are fine, but no write section may
   overlap anything and every access must sit in a section its own
   domain opened. *)
let test_cache_read_mostly_journal () =
  let engine = mk_engine () in
  let journal = Race.create () in
  let cache =
    Cache.create ~shards:2 ~max_bytes:(1024 * 1024)
      ~instrument:(Race.instrument journal) ()
  in
  let keys =
    List.init 8 (fun i -> mk_key engine [ Printf.sprintf "jk%d" i ])
  in
  List.iter (fun k -> Cache.add cache k empty_result) keys;
  Pool.with_pool ~size:4 ~oversubscribe:true (fun p ->
      ignore
        (Pool.run_all p
           (List.init 4 (fun d () ->
                for r = 1 to 50 do
                  List.iteri
                    (fun i k ->
                      (match Cache.find cache k with
                      | Some _ -> ()
                      | None -> Cache.add cache k empty_result);
                      if (r + i + d) mod 37 = 0 then Cache.clear cache)
                    keys
                done))
         : unit array));
  let ops = List.map (fun e -> e.Race.op) (Race.events journal) in
  Alcotest.(check bool) "read sections were exercised" true
    (List.mem Race.Rlock ops);
  Alcotest.(check bool) "write sections were exercised" true
    (List.mem Race.Lock ops);
  Alcotest.(check (list string)) "journal replays clean" []
    (List.map Xks_check.Invariant.to_string (Race.check journal))

(* --- batch semantics --- *)

(* The instrument hook is arbitrary user code running inside a lock
   section; if it raises, the shard's rwlock must still be released
   (the locking wrappers protect the hook the same as the section
   body).  A leaked read lock would block the writer below forever, so
   it runs on its own domain against a deadline: a regression fails
   the check instead of hanging the suite. *)
let test_cache_instrument_raise_releases_lock () =
  let engine = mk_engine () in
  let boom = ref true in
  let instrument _idx = function
    | Cache.Read when !boom -> failwith "instrument boom"
    | Cache.Read | Cache.Write | Cache.Lock | Cache.Unlock | Cache.Rlock
    | Cache.Runlock ->
        ()
  in
  let cache = Cache.create ~shards:1 ~instrument ~max_bytes:(1024 * 1024) () in
  let k = mk_key engine [ "xml" ] in
  (match Cache.find cache k with
  | _ -> Alcotest.fail "instrument exception must escape Cache.find"
  | exception Failure _ -> ());
  boom := false;
  let done_flag = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Cache.add cache k empty_result;
        Atomic.set done_flag true)
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Atomic.get done_flag)) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "writer acquired the shard lock after the raise" true
    (Atomic.get done_flag);
  Domain.join writer;
  Alcotest.(check bool) "entry written" true (Cache.find cache k <> None)

let test_budget_class () =
  Alcotest.(check string) "none" "unbudgeted" (Exec.budget_class_of None);
  Alcotest.(check string) "empty spec" "unbudgeted"
    (Exec.budget_class_of (Some { Exec.deadline_ms = None; max_nodes = None }));
  Alcotest.(check string) "deadline only" "t100:n-"
    (Exec.budget_class_of
       (Some { Exec.deadline_ms = Some 100; max_nodes = None }));
  Alcotest.(check string) "both" "t100:n5000"
    (Exec.budget_class_of
       (Some { Exec.deadline_ms = Some 100; max_nodes = Some 5000 }))

let paper_queries =
  [ Fixtures.q1; Fixtures.q2; Fixtures.q3; Fixtures.q4; Fixtures.q5 ]

let hit_list : Engine.hit list Alcotest.testable =
  Alcotest.testable
    (fun fmt hits -> Format.fprintf fmt "<%d hits>" (List.length hits))
    ( = )

let check_batch_matches_sequential engine queries =
  let sequential = List.map (Engine.search engine) queries in
  let cache = Cache.create ~max_bytes:(8 * 1024 * 1024) () in
  (* ~oversubscribe: determinism under 4 real domains is the point,
     whatever the host's core count. *)
  Pool.with_pool ~size:4 ~oversubscribe:true (fun pool ->
      let cold = Exec.search_batch ~pool ~cache engine queries in
      let warm = Exec.search_batch ~pool ~cache engine queries in
      List.iteri
        (fun i seq ->
          Alcotest.check hit_list
            (Printf.sprintf "query %d (cold)" i)
            seq cold.(i);
          Alcotest.check hit_list
            (Printf.sprintf "query %d (cache-served)" i)
            seq warm.(i))
        sequential);
  Alcotest.(check bool) "second pass was cache-served" true
    ((Cache.stats cache).Cache.hits >= List.length queries)

let test_batch_determinism_fixtures () =
  check_batch_matches_sequential
    (Engine.of_doc (Fixtures.publications ()))
    paper_queries;
  check_batch_matches_sequential (Engine.of_doc (Fixtures.team ())) paper_queries

let test_batch_determinism_generated () =
  let doc =
    Xks_datagen.Dblp_gen.(
      generate ~config:{ default_config with entries = 150; seed = 23 } ())
  in
  let idx = Inverted.build doc in
  let queries = Xks_datagen.Workload_gen.generate ~seed:31 ~count:50 idx in
  Alcotest.(check int) "workload size" 50 (List.length queries);
  (* Cross-check the workload itself with the differential oracle
     before trusting it as a determinism baseline. *)
  Alcotest.(check int) "oracle violations" 0
    (List.length (Xks_check.Oracle.check_workload idx queries));
  check_batch_matches_sequential (Engine.of_index idx) queries

let test_batch_budget_semantics () =
  (* A max_nodes budget degrades deterministically (node counts are not
     time-dependent): the batch must degrade exactly like the
     sequential path, per query. *)
  let engine = Engine.of_doc (Fixtures.publications ()) in
  let spec = { Exec.deadline_ms = None; max_nodes = Some 1 } in
  let sequential =
    List.map
      (fun ws ->
        Engine.search_result
          ~budget:(Xks_robust.Budget.create ?max_nodes:spec.Exec.max_nodes ())
          engine ws)
      paper_queries
  in
  Pool.with_pool ~size:4 ~oversubscribe:true (fun pool ->
      let batched =
        Exec.search_batch_results ~pool ~budget:spec engine paper_queries
      in
      List.iteri
        (fun i (seq : Engine.search_result) ->
          Alcotest.check hit_list
            (Printf.sprintf "budgeted query %d hits" i)
            seq.Engine.hits
            batched.(i).Engine.hits;
          Alcotest.(check bool)
            (Printf.sprintf "budgeted query %d degradation" i)
            true
            (seq.Engine.degraded = batched.(i).Engine.degraded))
        sequential)

(* An answer degraded by a deadline depends on how long the run took,
   not on the cache key, so it is never cached; one degraded by a node
   budget is fixed by the key's budget class, so it is.  The query
   ticks thousands of nodes, far past the 128-node clock interval, so a
   zero deadline always expires. *)
let test_cache_skips_deadline_degraded () =
  let engine =
    Engine.of_string
      ("<r>"
      ^ String.concat "" (List.init 2000 (fun _ -> "<a>xml search</a>"))
      ^ "</r>")
  in
  let cache = Cache.create ~max_bytes:(64 * 1024 * 1024) () in
  let twice spec =
    let before = Cache.stats cache in
    let run () =
      (Exec.search_batch_results ~cache ~budget:spec engine
         [ [ "xml"; "search" ] ]).(0)
    in
    let first = run () in
    let second = run () in
    let after = Cache.stats cache in
    (first, second, after.Cache.hits - before.Cache.hits)
  in
  let first, second, hits =
    twice { Exec.deadline_ms = Some 0; max_nodes = None }
  in
  Alcotest.(check bool) "degraded by the deadline" true
    (first.Engine.degraded = Some Xks_robust.Budget.Deadline
    && second.Engine.degraded = Some Xks_robust.Budget.Deadline);
  Alcotest.(check int) "second deadline run is a miss" 0 hits;
  let first, second, hits =
    twice { Exec.deadline_ms = None; max_nodes = Some 1 }
  in
  Alcotest.(check bool) "degraded by the node budget" true
    (first.Engine.degraded = Some Xks_robust.Budget.Node_budget);
  Alcotest.(check int) "second node-budget run is a hit" 1 hits;
  Alcotest.check hit_list "the cached answer" first.Engine.hits
    second.Engine.hits

let test_batch_empty_query_rejected () =
  let engine = mk_engine () in
  Pool.with_pool ~size:2 (fun pool ->
      match Exec.search_batch ~pool engine [ [ "xml" ]; [] ] with
      | _ -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error (Invalid_argument _) -> ()
      | exception e -> raise e);
  (* Without a pool the raw exception escapes, as Engine.search does. *)
  match Exec.search_batch engine [ [] ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let tests =
  [
    Alcotest.test_case "deque empty behaviour" `Quick test_deque_empty;
    Alcotest.test_case "deque owner LIFO, thief FIFO" `Quick
      test_deque_owner_lifo_thief_fifo;
    Alcotest.test_case "pool preserves input order" `Quick
      test_pool_preserves_order;
    Alcotest.test_case "pool propagates task exceptions" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "pool rejects submit after shutdown" `Quick
      test_pool_rejects_after_shutdown;
    Alcotest.test_case "pool concurrent shutdown has one winner" `Quick
      test_pool_concurrent_shutdown;
    Alcotest.test_case "pool rejects zero size" `Quick
      test_pool_rejects_zero_size;
    Alcotest.test_case "pool caps at the host's domain count" `Quick
      test_pool_caps_at_domain_count;
    Alcotest.test_case "run_all order preserved under stealing" `Quick
      test_pool_run_all_order_under_stealing;
    Alcotest.test_case "run_all vs concurrent shutdown never hangs" `Quick
      test_pool_run_all_vs_concurrent_shutdown;
    Alcotest.test_case "shutdown drains queued deques" `Quick
      test_pool_shutdown_drains_deques;
    Alcotest.test_case "cache key normalisation" `Quick test_key_normalisation;
    Alcotest.test_case "cache key hash is the six-field record's" `Quick
      test_key_hash_unchanged;
    Alcotest.test_case "cache stale invalidation across engines" `Quick
      test_key_stale_invalidation;
    Alcotest.test_case "cache key carries rank mode and k" `Quick
      test_key_rank_params;
    Alcotest.test_case "cache hit/miss counters" `Quick
      test_cache_hit_miss_counters;
    Alcotest.test_case "cache LRU eviction order" `Quick
      test_cache_lru_eviction_order;
    Alcotest.test_case "cache skips oversized results" `Quick
      test_cache_oversized_not_cached;
    Alcotest.test_case "cache shard independence and clear" `Quick
      test_cache_shard_independence;
    Alcotest.test_case "cache eviction order under promotion" `Quick
      test_cache_eviction_order_deep;
    Alcotest.test_case "cache contention stress (4 domains, one shard)" `Quick
      test_cache_contention_stress;
    Alcotest.test_case "cache read-mostly journal replays clean" `Quick
      test_cache_read_mostly_journal;
    Alcotest.test_case "cache releases shard lock when instrument raises"
      `Quick test_cache_instrument_raise_releases_lock;
    Alcotest.test_case "budget class strings" `Quick test_budget_class;
    Alcotest.test_case "jobs=4 determinism on paper fixtures" `Quick
      test_batch_determinism_fixtures;
    Alcotest.test_case "jobs=4 determinism on generated workload" `Slow
      test_batch_determinism_generated;
    Alcotest.test_case "per-query budgets in a batch" `Quick
      test_batch_budget_semantics;
    Alcotest.test_case "cache skips answers degraded by a deadline" `Quick
      test_cache_skips_deadline_degraded;
    Alcotest.test_case "empty query aborts the batch" `Quick
      test_batch_empty_query_rejected;
  ]
