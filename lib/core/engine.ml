module Tree = Xks_xml.Tree
module Budget = Xks_robust.Budget
module Trace = Xks_trace.Trace

(* [doc] carries the interned label table and [index] the inverted
   index; both are mutable internally but written only while
   parse/build constructs them — engines share them strictly
   read-only. *)
(* xksrace: domain_safe doc and index are frozen before the engine is shared *)
type t = { id : int; doc : Tree.t; index : Xks_index.Inverted.t }
type algorithm = Validrtf | Maxmatch | Maxmatch_original
type rank_mode = [ `Heuristic | `Bm25 | `Doc ]

(* Engine identity for result caches ([Xks_exec.Cache]): every engine —
   even one adopting a reloaded index via [of_index] — gets a fresh id,
   so entries cached against a previous engine can never be served for a
   new one. *)
(* xkslint: allow module-state process-unique engine id counter *)
let next_id = Atomic.make 0

type hit = {
  fragment : Fragment.t;
  rtf : Rtf.t;
  score : float;
  is_slca : bool;
}

let of_doc doc =
  { id = Atomic.fetch_and_add next_id 1; doc; index = Xks_index.Inverted.build doc }

let of_index index =
  {
    id = Atomic.fetch_and_add next_id 1;
    doc = Xks_index.Inverted.doc index;
    index;
  }

let of_file ?limits path = of_doc (Xks_xml.Parser.parse_file ?limits path)
let of_string ?limits s = of_doc (Xks_xml.Parser.parse_string ?limits s)
let id e = e.id
let doc e = e.doc
let index e = e.index

(* Rarest keyword first: the dedup is shared with every caller of
   [Query.make]; the rarity sort additionally puts the shortest posting
   list in the driver seat of the stack walks. *)
let query_make e ws =
  let t0 = Trace.start () in
  let q = Query.make ~order:`Rarest e.index ws in
  Trace.stop Trace.Query_make t0;
  q

(* Each algorithm is one instance of the pipeline, timed as its stage. *)
let pipeline = function
  | Validrtf ->
      (Trace.Validrtf, Pipeline.Elca_indexed_stack, Pipeline.Valid_contributor)
  | Maxmatch ->
      (Trace.Maxmatch, Pipeline.Elca_indexed_stack, Pipeline.Contributor)
  | Maxmatch_original ->
      (Trace.Maxmatch_original, Pipeline.Slca_only, Pipeline.Contributor)

let run_query ~algorithm ?cid_mode ?budget q =
  let stage, lca, pruning = pipeline algorithm in
  Trace.with_stage stage (fun () ->
      Pipeline.run_query ?cid_mode ?budget ~lca ~pruning q)

let run ?(algorithm = Validrtf) ?cid_mode ?budget e ws =
  run_query ~algorithm ?cid_mode ?budget (query_make e ws)

(* [indexed_lookup_eager] returns ascending ids, so membership is a
   binary search instead of an O(hits × slcas) list scan. *)
let slca_table (q : Query.t) =
  lazy
    (let t0 = Trace.start () in
     let slcas =
       if Query.has_results q then
         Array.of_list (Xks_lca.Slca.indexed_lookup_eager q.doc q.postings)
       else [||]
     in
     Trace.stop Trace.Slca_tag t0;
     slcas)

let hit slcas fragment (rtf : Rtf.t) score =
  let is_slca = Xks_util.Bsearch.mem (Lazy.force slcas) rtf.lca in
  { fragment; rtf; score; is_slca }

let check_k = function
  | Some k when k < 1 -> invalid_arg "Engine.search: k must be >= 1"
  | Some _ | None -> ()

let truncate k l =
  match k with None -> l | Some k -> List.filteri (fun i _ -> i < k) l

(* Full-enumeration BM25: score every RTF from posting statistics, in
   {!Ranking.rank_by}'s (score desc, LCA id asc) order — the order the
   streaming top-k driver must agree with. *)
let bm25_scored (result : Pipeline.result) =
  let w = Rank.weights result.query in
  Ranking.rank_by (fun q rtf _ -> Rank.score_rtf w q rtf) result

let hits_of_result ?(rank = (`Heuristic : rank_mode)) ?k (_ : t) result =
  check_k k;
  let slcas = slca_table result.Pipeline.query in
  let t0 = Trace.start () in
  let scored =
    match rank with
    | `Heuristic -> Ranking.rank result
    | `Bm25 -> bm25_scored result
    | `Doc ->
        List.sort
          (fun (a : Ranking.scored) b -> Int.compare a.rtf.lca b.rtf.lca)
          (Ranking.rank result)
  in
  Trace.stop Trace.Rank t0;
  List.map
    (fun (s : Ranking.scored) -> hit slcas s.fragment s.rtf s.score)
    (truncate k scored)

(* Ranked winners, best first, become hits: only their fragments are
   constructed and pruned. *)
let winner_hits ?cid_mode ?budget pruning q winners =
  let slcas = slca_table q in
  List.map
    (fun (score, (rtf : Rtf.t)) ->
      hit slcas (Pipeline.fragment ?cid_mode ?budget pruning q rtf) rtf score)
    winners

(* The streaming top-k fast path (BM25 + k over ValidRTF): scan once
   with score-bounded early termination, then build only the k winning
   fragments. *)
let topk_hits ?cid_mode ?budget ~k q =
  (* Same up-front posting charge as [Pipeline.lcas_rtfs]. *)
  Budget.tick_opt budget
    (Array.fold_left (fun acc p -> acc + Array.length p) 0 q.Query.postings);
  let w = Rank.weights q in
  let outcome =
    Trace.with_stage Trace.Topk (fun () ->
        Xks_lca.Topk.run ?budget ~k
          ~score:(fun ~lca:_ ~tf -> Rank.score_tf w tf)
          ~bound:(fun ~avail -> Rank.bound w ~avail)
          q.Query.doc q.Query.postings)
  in
  winner_hits ?cid_mode ?budget Pipeline.Valid_contributor q
    (List.map
       (fun (c : Xks_lca.Topk.candidate) ->
         (c.score, { Rtf.lca = c.lca; knodes = c.knodes }))
       outcome.Xks_lca.Topk.top)

(* BM25 + k over a full enumeration (the MaxMatch algorithms, and the
   SLCA-only floor of a degraded top-k search): BM25 reads only the RTF,
   so the RTFs are ranked in the streaming driver's (score desc, LCA id
   asc) order before any fragment is built, and only the first k are. *)
let bm25_topk_hits ~algorithm ?cid_mode ?budget ~k q =
  let stage, lca, pruning = pipeline algorithm in
  let _, rtfs =
    Trace.with_stage stage (fun () -> Pipeline.lcas_rtfs ?budget ~lca q)
  in
  let t0 = Trace.start () in
  let w = Rank.weights q in
  let best = Xks_util.Topheap.create ~capacity:k in
  List.iter
    (fun (rtf : Rtf.t) ->
      ignore
        (Xks_util.Topheap.insert best ~score:(Rank.score_rtf w q rtf)
           ~id:rtf.lca rtf
          : bool))
    rtfs;
  let winners =
    List.map
      (fun (score, _, rtf) -> (score, rtf))
      (Xks_util.Topheap.to_sorted_list best)
  in
  Trace.stop Trace.Rank t0;
  winner_hits ?cid_mode ?budget pruning q winners

type search_result = { hits : hit list; degraded : Budget.reason option }

(* Graceful degradation is one step: the requested algorithm (or the
   top-k scan) runs under the budget, and on exhaustion the SLCA-only
   floor (original MaxMatch) answers unbudgeted, so a budgeted search
   always returns.  No rung in between: revised MaxMatch charges the
   same ticks as ValidRTF, so it would only replay the exhaustion. *)
let search_result ?(algorithm = Validrtf) ?cid_mode
    ?(rank = (`Heuristic : rank_mode)) ?k ?budget e ws =
  check_k k;
  let t0 = Trace.start () in
  let q = query_make e ws in
  let attempt alg budget =
    match (alg, rank, k) with
    | Validrtf, `Bm25, Some k -> topk_hits ?cid_mode ?budget ~k q
    | (Maxmatch | Maxmatch_original), `Bm25, Some k ->
        bm25_topk_hits ~algorithm:alg ?cid_mode ?budget ~k q
    | ( (Validrtf | Maxmatch | Maxmatch_original),
        (`Bm25 | `Heuristic | `Doc),
        (Some _ | None) ) ->
        hits_of_result ~rank ?k e (run_query ~algorithm:alg ?cid_mode ?budget q)
  in
  let result =
    match attempt algorithm budget with
    | hits -> { hits; degraded = None }
    | exception Budget.Exhausted reason ->
        (* One event per degraded search, also when the floor finds no
           hit. *)
        Trace.degradation (Budget.reason_to_string reason);
        { hits = attempt Maxmatch_original None; degraded = Some reason }
  in
  Trace.stop Trace.Search t0;
  result

let search ?algorithm ?cid_mode ?rank ?k e ws =
  (search_result ?algorithm ?cid_mode ?rank ?k e ws).hits

let render ?(xml = false) e hit =
  if xml then Fragment.to_xml e.doc hit.fragment
  else Fragment.render e.doc hit.fragment

let stats e =
  Printf.sprintf "%d nodes, %d distinct labels, %d indexed words"
    (Tree.size e.doc)
    (Xks_xml.Label.count (Tree.labels e.doc))
    (Xks_index.Inverted.vocabulary_size e.index)
