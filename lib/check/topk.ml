(* Differential oracle for the streaming top-k path: Engine.search with
   ~rank:`Bm25 ~k must return exactly the k-prefix of the sorted
   full-enumeration answer — same LCAs, same scores, same pruned
   fragments — on every query, and the batch executor must serve the
   identical answer cold, cache-warm, sequentially and from a pool.

   The comparison is structural (=) on the whole hit list, floats
   included: both sides prepare the query with the same `Rarest keyword
   permutation and sum the same per-keyword BM25 contributions in the
   same order (Rank.score_tf), so even the score bits must agree.  Any
   drift — a fragment admitted by an unsound bound, a tie broken the
   wrong way, a cache entry served across rank modes — shows up as a
   violation.  The same comparison checks budgeted answers (rule
   [ladder]) against the answer their degradation tag names. *)

module Engine = Xks_core.Engine
module Query = Xks_core.Query
module Rank = Xks_core.Rank
module Rtf = Xks_core.Rtf
module Exec = Xks_exec.Exec
module Pool = Xks_exec.Pool
module Budget = Xks_robust.Budget

let prefix k l = List.filteri (fun i _ -> i < k) l

let hit_desc (h : Engine.hit) =
  Printf.sprintf "lca=%d score=%.6g" h.rtf.Xks_core.Rtf.lca h.score

let hits_desc hits = String.concat "; " (List.map hit_desc hits)

let violation ?(tag = "") rule fmt =
  Printf.ksprintf
    (fun detail ->
      let detail = if tag = "" then detail else tag ^ ": " ^ detail in
      { Invariant.rule; detail })
    fmt

let compare_hits ?tag ~rule ~what expected got =
  if got = expected then []
  else if List.length got <> List.length expected then
    [
      violation ?tag rule "%s returned %d hit(s), expected %d: [%s] vs [%s]"
        what (List.length got)
        (List.length expected)
        (hits_desc got) (hits_desc expected);
    ]
  else
    (* Same length: name the first position that disagrees. *)
    let rec first i gs es =
      match (gs, es) with
      | g :: gs', e :: es' -> if g = e then first (i + 1) gs' es' else Some i
      | [], [] | _ :: _, [] | [], _ :: _ -> None
    in
    let at =
      match first 0 got expected with Some i -> i | None -> List.length got
    in
    [
      violation ?tag rule "%s diverges at rank %d: [%s] vs [%s]" what at
        (hits_desc got) (hits_desc expected);
    ]

let ints a = String.concat "," (List.map string_of_int (Array.to_list a))

(* Every emit's counts, not only the winners': with [k] above the ELCA
   count the heap never fills, so [Topk.run] keeps every fragment it
   scores, and each must carry the tf vector and keyword nodes of the
   full pipeline's RTF with the same LCA. *)
let check_counts ?tag (q : Query.t) =
  let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
  let w = Rank.weights q in
  let outcome =
    Xks_lca.Topk.run
      ~k:(List.length lcas + 1)
      ~score:(fun ~lca:_ ~tf -> Rank.score_tf w tf)
      ~bound:(fun ~avail -> Rank.bound w ~avail)
      q.doc q.postings
  in
  let kept =
    List.sort
      (fun (a : Xks_lca.Topk.candidate) b -> Int.compare a.lca b.lca)
      outcome.top
  in
  let kept_lcas = List.map (fun (c : Xks_lca.Topk.candidate) -> c.lca) kept in
  if kept_lcas <> lcas then
    [
      violation ?tag "topk-tf" "top-k kept LCAs [%s], the ELCAs are [%s]"
        (ints (Array.of_list kept_lcas))
        (ints (Array.of_list lcas));
    ]
  else
    List.concat
      (List.map2
         (fun (c : Xks_lca.Topk.candidate) (rtf : Rtf.t) ->
           let tf = Rank.tf_of_rtf q rtf in
           if c.tf = tf && c.knodes = rtf.knodes then []
           else
             [
               violation ?tag "topk-tf"
                 "lca=%d: top-k tf [%s] knodes [%s], the RTF's tf [%s] \
                  knodes [%s]"
                 c.lca (ints c.tf) (ints c.knodes) (ints tf)
                 (ints rtf.knodes);
             ])
         kept (Rtf.get_rtfs q lcas))

let check_query ?tag ?(k = 10) engine ws =
  let topk = (Engine.search_result ~rank:`Bm25 ~k engine ws).Engine.hits in
  let full = (Engine.search_result ~rank:`Bm25 engine ws).Engine.hits in
  compare_hits ?tag ~rule:"topk-equivalence"
    ~what:(Printf.sprintf "streaming top-%d" k)
    (prefix k full) topk
  @ check_counts ?tag (Query.make ~order:`Rarest (Engine.index engine) ws)

let batch_jobs = 4

let check_batch ?(k = 10) engine queries =
  let expected =
    List.map
      (fun ws -> (Engine.search_result ~rank:`Bm25 ~k engine ws).Engine.hits)
      queries
  in
  let audit what (results : Engine.hit list array) =
    List.concat
      (List.mapi
         (fun i (ws, exp) ->
           let tag = String.concat " " ws in
           compare_hits ~tag ~rule:"topk-batch" ~what exp results.(i))
         (List.combine queries expected))
  in
  let run ?pool what =
    let cache = Exec.Cache.create ~max_bytes:(8 * 1024 * 1024) () in
    let cold =
      Exec.search_batch ?pool ~cache ~rank:`Bm25 ~k engine queries
    in
    let warm =
      Exec.search_batch ?pool ~cache ~rank:`Bm25 ~k engine queries
    in
    audit (what ^ " cold") cold @ audit (what ^ " warm") warm
  in
  run "jobs=1"
  @ Pool.with_pool ~size:batch_jobs ~oversubscribe:true (fun pool ->
        run ~pool (Printf.sprintf "jobs=%d" batch_jobs))

let expired_deadline () =
  let now = ref 0.0 in
  let b =
    Budget.create ~now:(fun () -> !now) ~check_interval:1 ~deadline_ms:1 ()
  in
  now := 10.0;
  b

let check_budgeted ?tag ?rank ?k ~what engine ws budget =
  let r = Engine.search_result ?rank ?k ~budget engine ws in
  let rung, algorithm =
    match r.Engine.degraded with
    | None -> ("untagged", Engine.Validrtf)
    | Some (Budget.Deadline | Budget.Node_budget) ->
        ("tagged", Engine.Maxmatch_original)
  in
  compare_hits ?tag ~rule:"ladder"
    ~what:(Printf.sprintf "%s answer under %s" rung what)
    (Engine.search ~algorithm ?rank ?k engine ws)
    r.Engine.hits

let check_ladder ?tag ?(k = 10) engine ws =
  List.concat_map
    (fun (mode, rank, k) ->
      let check what =
        check_budgeted ?tag ~rank ?k ~what:(mode ^ ", " ^ what) engine ws
      in
      (* An unlimited budget measures the query's full charge; its run
         must come back untagged. *)
      let unlimited = Budget.create () in
      let first = check "no limit" unlimited in
      let half = Budget.visited unlimited / 2 in
      first
      @ check
          (Printf.sprintf "a %d-node budget" half)
          (Budget.create ~max_nodes:half ())
      @ check "an expired deadline" (expired_deadline ()))
    [ ("heuristic", `Heuristic, None); ("BM25 top-k", `Bm25, Some k) ]

let check_workload ?k engine queries =
  List.concat_map
    (fun ws ->
      let tag = String.concat " " ws in
      check_query ~tag ?k engine ws @ check_ladder ~tag ?k engine ws)
    queries
  @ check_batch ?k engine queries
