(* check_runner — drives lib/check over the paper fixtures and a
   generated corpus.

   Exit 0 when every invariant holds and every optimised algorithm
   agrees with the naive reference; exit 1 with one line per violation
   otherwise.  Wired into [dune build @check] (and the @analyze
   umbrella).

   [--seed N] reseeds the generated-workload corpus (default 11, the
   pinned CI seed); the active seed is printed in both the ok and the
   failure summary so any oracle mismatch is reproducible by rerunning
   with the seed it reported.  [--race] runs the dynamic race check
   instead: an instrumented cache hammered from a 4-domain pool, its
   access journal replayed against the lock-held invariant
   (Xks_check.Race) — the runtime complement of tools/race/xksrace,
   wired into [dune build @race]. *)

module Inverted = Xks_index.Inverted
module Fixtures = Xks_datagen.Paper_fixtures
module Invariant = Xks_check.Invariant
module Oracle = Xks_check.Oracle
module Topk = Xks_check.Topk
module Race = Xks_check.Race
module Engine = Xks_core.Engine
module Exec = Xks_exec.Exec
module Pool = Xks_exec.Pool

let generated_queries = 120
let determinism_jobs = 4

let paper_queries =
  [ Fixtures.q1; Fixtures.q2; Fixtures.q3; Fixtures.q4; Fixtures.q5 ]

let report corpus violations =
  List.iter
    (fun x -> Printf.printf "%s: %s\n" corpus (Invariant.to_string x))
    violations;
  List.length violations

let check_corpus name doc queries =
  let idx = Inverted.build doc in
  let bad = report name (Invariant.index idx) in
  bad + report name (Oracle.check_workload idx queries)

(* Parallel determinism: for every query, Exec.search_batch over a
   jobs-wide pool must return hits structurally identical to the
   sequential Engine.search — and so must a second, cache-served pass
   (same engine, so the shared cache answers it). *)
let check_determinism name idx queries =
  let engine = Engine.of_index idx in
  let sequential = List.map (Engine.search engine) queries in
  let cache = Exec.Cache.create ~max_bytes:(8 * 1024 * 1024) () in
  let cold, warm =
    Pool.with_pool ~size:determinism_jobs ~oversubscribe:true (fun pool ->
        ( Exec.search_batch ~pool ~cache engine queries,
          Exec.search_batch ~pool ~cache engine queries ))
  in
  let bad = ref 0 in
  List.iteri
    (fun i seq ->
      let q = String.concat " " (List.nth queries i) in
      if cold.(i) <> seq then begin
        incr bad;
        Printf.printf
          "%s: parallel determinism: jobs=%d hits differ from sequential for \
           %S\n"
          name determinism_jobs q
      end;
      if warm.(i) <> seq then begin
        incr bad;
        Printf.printf
          "%s: parallel determinism: cache-served hits differ from \
           sequential for %S\n"
          name q
      end)
    sequential;
  !bad

(* Dynamic race check: every cache access recorded by the instrument
   hook, from a cold pass, a cache-served warm pass, a stats snapshot
   and a clear, all under real 4-domain contention; the journal must
   replay with every read/write inside a lock section opened by the
   accessing domain. *)
let run_race () =
  let idx = Inverted.build (Fixtures.publications ()) in
  let engine = Engine.of_index idx in
  let journal = Race.create () in
  let cache =
    Exec.Cache.create ~shards:2 ~instrument:(Race.instrument journal)
      ~max_bytes:(1024 * 1024) ()
  in
  (* Few shards + a repeated workload force shard collisions between
     workers, so lock handoffs actually happen under contention. *)
  let queries = List.concat (List.init 6 (fun _ -> paper_queries)) in
  Pool.with_pool ~size:determinism_jobs ~oversubscribe:true (fun pool ->
      let _cold = Exec.search_batch ~pool ~cache engine queries in
      let _warm = Exec.search_batch ~pool ~cache engine queries in
      ());
  let snapshot = Exec.Cache.stats cache in
  Exec.Cache.clear cache;
  let bad = report "race" (Race.check journal) in
  if bad = 0 then
    Printf.printf
      "check: ok — race journal clean (%d events over %d shards, jobs=%d, \
       %d lookups)\n"
      (Race.length journal)
      (Exec.Cache.shard_count cache)
      determinism_jobs
      (snapshot.hits + snapshot.misses)
  else begin
    Printf.eprintf "check: %d race violation(s) in the access journal\n" bad;
    exit 1
  end

let run_standard ~seed =
  (* The paper's two example documents, audited under all five example
     queries each (a query whose keywords miss the document exercises
     the empty-result paths). *)
  let bad = ref 0 in
  bad := !bad + check_corpus "publications" (Fixtures.publications ()) paper_queries;
  bad := !bad + check_corpus "team" (Fixtures.team ()) paper_queries;
  (* A generated DBLP-shaped corpus under a random workload mixing
     keyword frequencies. *)
  let doc =
    Xks_datagen.Dblp_gen.(
      generate ~config:{ default_config with entries = 400; seed = 7 } ())
  in
  let idx = Inverted.build doc in
  let workload =
    Xks_datagen.Workload_gen.generate ~seed ~count:generated_queries idx
  in
  bad := !bad + report "dblp-gen" (Invariant.index idx);
  bad := !bad + report "dblp-gen" (Oracle.check_workload idx workload);
  (* Batch execution must be indistinguishable from the sequential
     loop on the same workloads. *)
  bad :=
    !bad
    + check_determinism "publications"
        (Inverted.build (Fixtures.publications ()))
        paper_queries;
  bad :=
    !bad
    + check_determinism "team" (Inverted.build (Fixtures.team ())) paper_queries;
  bad := !bad + check_determinism "dblp-gen" idx workload;
  (* Ranked top-k must equal the k-prefix of full-enumeration-then-sort
     on every query — sequentially, cold/warm through the cache, and
     from a pool — every fragment the scan scores must carry its RTF's
     tf and keyword nodes, and every budgeted answer must be the one its
     degradation tag names (Xks_check.Topk). *)
  bad :=
    !bad
    + report "publications"
        (Topk.check_workload
           (Engine.of_index (Inverted.build (Fixtures.publications ())))
           paper_queries);
  bad :=
    !bad
    + report "team"
        (Topk.check_workload
           (Engine.of_index (Inverted.build (Fixtures.team ())))
           paper_queries);
  bad := !bad + report "dblp-gen" (Topk.check_workload (Engine.of_index idx) workload);
  let audited = (2 * List.length paper_queries) + List.length workload in
  if !bad = 0 then
    Printf.printf
      "check: ok — %d queries audited (invariants, ELCA/SLCA differential, \
       node-info reference, Definition 4 post-conditions, jobs=%d batch \
       determinism, top-k prefix equivalence, top-k counts of every ELCA, \
       ladder: each budgeted answer is its tag's rung's, workload \
       seed=%d)\n"
      audited determinism_jobs seed
  else begin
    Printf.eprintf
      "check: %d violation(s) across %d queries (workload seed=%d — rerun \
       with --seed %d to reproduce)\n"
      !bad audited seed seed;
    exit 1
  end

let () =
  let seed = ref 11 in
  let race = ref false in
  Arg.parse
    [
      ( "--seed",
        Arg.Set_int seed,
        "N generated-workload seed (default 11; printed in every summary)" );
      ( "--race",
        Arg.Set race,
        " run the instrumented-access dynamic race check instead" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "check_runner [--seed N] [--race]";
  if !race then run_race () else run_standard ~seed:!seed
