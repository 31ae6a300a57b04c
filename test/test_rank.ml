(* BM25 ranking primitives (lib/core/rank), the fixed-capacity top-k
   heap (lib/util/topheap), and the streaming top-k driver's contract:
   its output is exactly the k-prefix of ranking the full enumeration. *)

module Rank = Xks_core.Rank
module Query = Xks_core.Query
module Engine = Xks_core.Engine
module Topheap = Xks_util.Topheap

(* --- Topheap --- *)

let test_topheap_basics () =
  (match Topheap.create ~capacity:0 with
  | (_ : unit Topheap.t) -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ());
  let h : unit Topheap.t = Topheap.create ~capacity:3 in
  Alcotest.(check int) "capacity" 3 (Topheap.capacity h);
  Alcotest.(check int) "empty length" 0 (Topheap.length h);
  Alcotest.(check bool) "not full" false (Topheap.is_full h);
  Alcotest.(check bool) "min on empty" true (Topheap.min h = None);
  (* neg_infinity is always a valid admission threshold: anything gets
     in while the heap is not full. *)
  Alcotest.(check bool) "min_score on empty" true
    (Topheap.min_score h = neg_infinity);
  Alcotest.(check bool) "admits while not full" true
    (Topheap.admits h ~score:neg_infinity ~id:max_int)

let test_topheap_eviction () =
  let h = Topheap.create ~capacity:2 in
  Alcotest.(check bool) "first kept" true (Topheap.insert h ~score:1.0 ~id:5 "a");
  Alcotest.(check bool) "second kept" true
    (Topheap.insert h ~score:3.0 ~id:9 "b");
  Alcotest.(check bool) "full" true (Topheap.is_full h);
  (* The root is the worst kept entry: the admission threshold. *)
  Alcotest.(check bool) "min is the worst" true
    (match Topheap.min h with Some n -> n.Topheap.id = 5 | None -> false);
  Alcotest.(check bool) "lower score not admitted" false
    (Topheap.admits h ~score:0.5 ~id:1);
  Alcotest.(check bool) "lower score insert rejected" false
    (Topheap.insert h ~score:0.5 ~id:1 "c");
  Alcotest.(check bool) "higher score evicts the worst" true
    (Topheap.insert h ~score:2.0 ~id:7 "d");
  Alcotest.(check (list (pair (float 0.0) int)))
    "best first, score 1.0 gone"
    [ (3.0, 9); (2.0, 7) ]
    (List.map (fun (s, id, _) -> (s, id)) (Topheap.to_sorted_list h))

let test_topheap_tie_break () =
  let h : unit Topheap.t = Topheap.create ~capacity:2 in
  ignore (Topheap.insert h ~score:1.0 ~id:4 () : bool);
  ignore (Topheap.insert h ~score:1.0 ~id:2 () : bool);
  (* Ties break toward the smaller id (document order): on an equal
     score, a larger id than the root's loses, a smaller one wins. *)
  Alcotest.(check bool) "equal score, larger id rejected" false
    (Topheap.insert h ~score:1.0 ~id:9 ());
  Alcotest.(check bool) "equal score, smaller id evicts" true
    (Topheap.insert h ~score:1.0 ~id:1 ());
  Alcotest.(check (list int)) "ids ascending on equal score" [ 1; 2 ]
    (List.map (fun (_, id, ()) -> id) (Topheap.to_sorted_list h))

(* Reference semantics: the heap's sorted output is the k-prefix of
   sorting every inserted candidate by (score desc, id asc).  Scores
   come from a tiny set so ties are common; ids are the insertion
   indexes, so every candidate is distinct and the order is total. *)
let prop_topheap_matches_sort =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 6)
        (list_size (int_range 0 40) (oneofl [ 0.0; 0.5; 1.0; 1.5; 2.0 ])))
  in
  QCheck2.Test.make ~name:"topheap = k-prefix of full sort" ~count:500
    ~print:(fun (k, scores) ->
      Printf.sprintf "k=%d scores=[%s]" k
        (String.concat ";" (List.map string_of_float scores)))
    gen
    (fun (k, scores) ->
      let h = Topheap.create ~capacity:k in
      List.iteri
        (fun id s -> ignore (Topheap.insert h ~score:s ~id id : bool))
        scores;
      let expect =
        List.mapi (fun id s -> (s, id)) scores
        |> List.sort (fun (s1, i1) (s2, i2) ->
               match Float.compare s2 s1 with
               | 0 -> Int.compare i1 i2
               | c -> c)
        |> List.filteri (fun i _ -> i < k)
      in
      List.map (fun (s, id, _) -> (s, id)) (Topheap.to_sorted_list h)
      = expect)

(* --- Rank --- *)

let mk_query () =
  let engine =
    Engine.of_string
      "<r><a>xml data</a><b>xml keyword</b><c>data base</c><d>xml</d></r>"
  in
  Query.make (Engine.index engine) [ "xml"; "data" ]

let test_idf () =
  Alcotest.(check bool) "nonnegative even at df = N" true
    (Rank.idf ~nodes:100 ~df:100 >= 0.0);
  Alcotest.(check bool) "decreasing in df" true
    (Rank.idf ~nodes:100 ~df:1 > Rank.idf ~nodes:100 ~df:50)

let test_params_validation () =
  let q = mk_query () in
  let rejected p =
    match Rank.weights ~params:p q with
    | (_ : Rank.weights) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "k1 < 0 rejected" true
    (rejected { Rank.k1 = -0.1; b = 0.5 });
  Alcotest.(check bool) "b > 1 rejected" true
    (rejected { Rank.k1 = 1.2; b = 1.5 });
  Alcotest.(check bool) "b < 0 rejected" true
    (rejected { Rank.k1 = 1.2; b = -0.1 });
  ignore (Rank.weights ~params:Rank.default_params q : Rank.weights)

let test_contribution_monotone () =
  let q = mk_query () in
  let w = Rank.weights q in
  for i = 0 to Query.k q - 1 do
    Alcotest.(check (float 0.0))
      "tf = 0 contributes nothing" 0.0
      (Rank.contribution w i 0);
    for tf = 0 to 30 do
      Alcotest.(check bool) "monotone nondecreasing in tf" true
        (Rank.contribution w i tf <= Rank.contribution w i (tf + 1))
    done
  done

(* The early-exit soundness condition: [bound ~avail] dominates
   [score_tf tf] for every tf vector componentwise <= avail. *)
let prop_bound_dominates =
  let gen =
    QCheck2.Gen.(
      array_size (return 2) (pair (int_range 1 10) (int_range 0 10)))
  in
  QCheck2.Test.make ~name:"bound dominates score_tf for tf <= avail"
    ~count:500
    ~print:(fun pairs ->
      String.concat ";"
        (Array.to_list
           (Array.map (fun (a, t) -> Printf.sprintf "(%d,%d)" a t) pairs)))
    gen
    (fun pairs ->
      let q = mk_query () in
      let w = Rank.weights q in
      let avail = Array.map fst pairs in
      let tf = Array.map (fun (a, t) -> min a t) pairs in
      Rank.score_tf w tf <= Rank.bound w ~avail)

let test_bound_exhaustion () =
  (* Any keyword with no availability left sinks the bound: every
     future fragment needs at least one node per keyword. *)
  let q = mk_query () in
  let w = Rank.weights q in
  Alcotest.(check bool) "zero avail component" true
    (Rank.bound w ~avail:[| 3; 0 |] = neg_infinity);
  Alcotest.(check bool) "positive avail is finite" true
    (Float.is_finite (Rank.bound w ~avail:[| 3; 1 |]))

(* --- Streaming top-k vs full enumeration --- *)

(* The driver's contract on arbitrary documents: identical hits, in
   the same order, as ranking the full ELCA enumeration and keeping the
   first k.  Exact equality is intentional — both paths compute scores
   with the same Rank.score_rtf over the same `Rarest keyword order, so
   even the floats must agree bit-for-bit.  The MaxMatch algorithms
   rank their full enumeration's RTFs before building the first k
   fragments, and must agree with their own full ranking the same way,
   in both cID modes. *)
let prop_topk_equals_prefix =
  let gen =
    QCheck2.Gen.(triple Helpers.gen_doc Helpers.gen_query (int_range 1 5))
  in
  QCheck2.Test.make ~name:"top-k = k-prefix of full BM25 ranking"
    ~count:300
    ~print:(fun (doc, q, k) ->
      Printf.sprintf "k=%d query=%s doc=%s" k (String.concat "," q)
        (Helpers.print_doc doc))
    gen
    (fun (doc, q, k) ->
      let engine = Engine.of_doc doc in
      List.for_all
        (fun (algorithm, cid_mode) ->
          let full = Engine.search ~algorithm ~cid_mode ~rank:`Bm25 engine q in
          let prefix = List.filteri (fun i _ -> i < k) full in
          Engine.search ~algorithm ~cid_mode ~rank:`Bm25 ~k engine q = prefix)
        (List.concat_map
           (fun algorithm ->
             [ (algorithm, Xks_index.Cid.Approx); (algorithm, Xks_index.Cid.Exact) ])
           [ Engine.Validrtf; Engine.Maxmatch; Engine.Maxmatch_original ]))

(* The prefix property compares only the k winners, so a miscounted
   emit that leaves the top k unchanged passes it.  This one keeps every
   ELCA (k above the ELCA count) and compares each one's tf and knodes
   with the full pipeline's RTF (Xks_check's [topk-tf] rule). *)
let prop_topk_counts_every_emit =
  QCheck2.Test.make ~name:"top-k tf and knodes of every ELCA = its RTF's"
    ~count:300
    ~print:(fun (doc, q) ->
      Printf.sprintf "query=%s doc=%s" (String.concat "," q)
        (Helpers.print_doc doc))
    QCheck2.Gen.(pair Helpers.gen_doc Helpers.gen_query)
    (fun (doc, ws) ->
      let q = Query.make ~order:`Rarest (Xks_index.Inverted.build doc) ws in
      match Xks_check.Topk.check_counts q with
      | [] -> true
      | v :: _ -> QCheck2.Test.fail_report (Xks_check.Invariant.to_string v))

let tests =
  [
    Alcotest.test_case "topheap basics and thresholds" `Quick
      test_topheap_basics;
    Alcotest.test_case "topheap eviction" `Quick test_topheap_eviction;
    Alcotest.test_case "topheap deterministic tie-break" `Quick
      test_topheap_tie_break;
    Helpers.qtest prop_topheap_matches_sort;
    Alcotest.test_case "idf sanity" `Quick test_idf;
    Alcotest.test_case "BM25 params validation" `Quick test_params_validation;
    Alcotest.test_case "contribution monotone in tf" `Quick
      test_contribution_monotone;
    Helpers.qtest prop_bound_dominates;
    Alcotest.test_case "bound collapses on exhausted keyword" `Quick
      test_bound_exhaustion;
    Helpers.qtest prop_topk_equals_prefix;
    Helpers.qtest prop_topk_counts_every_emit;
  ]
