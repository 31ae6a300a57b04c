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
  degraded : Budget.reason option;
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

let run ?(algorithm = Validrtf) ?cid_mode ?budget e ws =
  (* Rarest keyword first: the dedup is shared with every caller of
     [Query.make]; the rarity sort additionally puts the shortest
     posting list in the driver seat of the stack walks. *)
  let q = Query.make ~order:`Rarest e.index ws in
  match algorithm with
  | Validrtf -> Validrtf.run_query ?cid_mode ?budget q
  | Maxmatch -> Maxmatch.run_revised_query ?budget q
  | Maxmatch_original -> Maxmatch.run_original_query ?budget q

(* [indexed_lookup_eager] returns ascending ids, so membership is a
   binary search instead of an O(hits × slcas) list scan. *)
let slca_table (q : Query.t) =
  lazy
    (Trace.with_span "slca_tag" (fun () ->
         if Query.has_results q then
           Array.of_list (Xks_lca.Slca.indexed_lookup_eager q.doc q.postings)
         else [||]))

let check_k = function
  | Some k when k < 1 -> invalid_arg "Engine.search: k must be >= 1"
  | Some _ | None -> ()

let truncate k l =
  match k with None -> l | Some k -> List.filteri (fun i _ -> i < k) l

(* Full-enumeration BM25: score every RTF from posting statistics and
   sort (score desc, LCA id asc) — the order the streaming top-k driver
   must agree with. *)
let bm25_scored (result : Pipeline.result) =
  let w = Rank.weights result.query in
  let scored =
    (* xkscost: unticked pre-charged: scores the already-budgeted pipeline result; tf reads were charged by get_rtfs *)
    List.map2
      (fun rtf fragment ->
        { Ranking.fragment; rtf; score = Rank.score_rtf w result.query rtf })
      result.rtfs result.fragments
  in
  (* xkscost: unticked pre-charged: sorts the already-materialised scored list, |rtfs| bounded by the ticked LCA sweep *)
  List.sort
    (fun (a : Ranking.scored) b ->
      let c = Float.compare b.score a.score in
      if c <> 0 then c else Int.compare a.rtf.lca b.rtf.lca)
    scored

let hits_of_result ?(rank = (`Heuristic : rank_mode)) ?k (_ : t) result =
  check_k k;
  let slcas = slca_table result.Pipeline.query in
  let hit (scored : Ranking.scored) =
    {
      fragment = scored.fragment;
      rtf = scored.rtf;
      score = scored.score;
      is_slca = Xks_util.Bsearch.mem (Lazy.force slcas) scored.rtf.lca;
      degraded = None;
    }
  in
  let scored =
    Trace.with_span "rank" (fun () ->
        match rank with
        | `Heuristic -> Ranking.rank result
        | `Bm25 -> bm25_scored result
        | `Doc ->
            List.sort
              (fun (a : Ranking.scored) b -> Int.compare a.rtf.lca b.rtf.lca)
              (Ranking.rank result))
  in
  List.map hit (truncate k scored)

(* The streaming top-k fast path (BM25 + k over ValidRTF): scan once
   with score-bounded early termination, then construct and prune only
   the k winning fragments instead of every RTF. *)
let topk_hits ?cid_mode ?budget ~k e ws =
  let q = Query.make ~order:`Rarest e.index ws in
  (* Same up-front posting charge as [Pipeline.run_query]. *)
  Budget.tick_opt budget
    (Array.fold_left (fun acc p -> acc + Array.length p) 0 q.Query.postings);
  let w = Rank.weights q in
  let outcome =
    Trace.with_span "topk" (fun () ->
        Xks_lca.Topk.run ?budget ~k
          ~score:(fun ~lca:_ ~tf -> Rank.score_tf w tf)
          ~bound:(fun ~avail -> Rank.bound w ~avail)
          q.Query.doc q.Query.postings)
  in
  let slcas = slca_table q in
  Trace.with_span "prune" (fun () ->
      List.map
        (fun (c : Xks_lca.Topk.candidate) ->
          Budget.tick_opt budget (1 + Array.length c.knodes);
          let rtf = { Rtf.lca = c.lca; knodes = c.knodes } in
          let fragment =
            Prune.valid_contributor (Node_info.construct ?cid_mode q rtf)
          in
          {
            fragment;
            rtf;
            score = c.score;
            is_slca = Xks_util.Bsearch.mem (Lazy.force slcas) c.lca;
            degraded = None;
          })
        outcome.Xks_lca.Topk.top)

(* The graceful-degradation ladder: each cheaper algorithm retries with a
   renewed node allowance (same absolute deadline); the floor — original
   MaxMatch, SLCA fragments only — runs unbudgeted so a budgeted search
   always returns.  Hits carry the first exhaustion reason. *)
let next_cheaper = function
  | Validrtf -> Some Maxmatch
  | Maxmatch -> Some Maxmatch_original
  | Maxmatch_original -> None

type search_result = { hits : hit list; degraded : Budget.reason option }

let search_result ?(algorithm = Validrtf) ?cid_mode
    ?(rank = (`Heuristic : rank_mode)) ?k ?budget e ws =
  check_k k;
  Trace.with_span "search" (fun () ->
      let attempt alg budget =
        match (rank, k) with
        | `Bm25, Some kk -> (
            match alg with
            | Validrtf -> topk_hits ?cid_mode ?budget ~k:kk e ws
            | Maxmatch | Maxmatch_original ->
                (* Down-ladder (or explicitly cheaper) top-k: full
                   enumeration, BM25-scored, k-prefix — still
                   score-tagged, just without the early-exit scan. *)
                hits_of_result ~rank ?k e
                  (run ~algorithm:alg ?cid_mode ?budget e ws))
        | (`Bm25 | `Heuristic | `Doc), (Some _ | None) ->
            hits_of_result ~rank ?k e
              (run ~algorithm:alg ?cid_mode ?budget e ws)
      in
      match budget with
      | None -> { hits = attempt algorithm None; degraded = None }
      | Some b -> (
          let rec ladder alg b =
            match attempt alg (Some b) with
            | hits -> (hits, None)
            | exception Budget.Exhausted reason -> (
                match next_cheaper alg with
                | Some alg' ->
                    let hits, _ = ladder alg' (Budget.renew b) in
                    (hits, Some reason)
                | None -> (attempt Maxmatch_original None, Some reason))
          in
          match ladder algorithm b with
          | hits, None -> { hits; degraded = None }
          | hits, Some reason ->
              (* One event per degraded search, recorded whether or not
                 any hit survived to carry the tag. *)
              Trace.degradation (Budget.reason_to_string reason);
              {
                hits =
                  List.map
                    (fun (h : hit) -> { h with degraded = Some reason })
                    hits;
                degraded = Some reason;
              }))

let search ?algorithm ?cid_mode ?rank ?k ?budget e ws =
  (search_result ?algorithm ?cid_mode ?rank ?k ?budget e ws).hits

let degraded_reason hits =
  List.find_map (fun (h : hit) -> h.degraded) hits

let render ?(xml = false) e hit =
  if xml then Fragment.to_xml e.doc hit.fragment
  else Fragment.render e.doc hit.fragment

let stats e =
  Printf.sprintf "%d nodes, %d distinct labels, %d indexed words"
    (Tree.size e.doc)
    (Xks_xml.Label.count (Tree.labels e.doc))
    (Xks_index.Inverted.vocabulary_size e.index)
