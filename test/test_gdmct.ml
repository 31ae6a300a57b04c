(* GDMCT-style connecting trees. *)

module Gdmct = Xks_core.Gdmct
module Query = Xks_core.Query
module Fragment = Xks_core.Fragment
module Tree = Xks_xml.Tree

let query_of xml ws =
  let doc = Xks_xml.Parser.parse_string xml in
  (doc, Query.make (Xks_index.Inverted.build doc) ws)

let test_basic_mct () =
  let doc, q =
    query_of "<r><a><x>w1</x><y>w2</y></a><b>w1</b></r>" [ "w1"; "w2" ]
  in
  let results = Gdmct.search q in
  (* Connecting trees exist at 'a' (x + y) and at the root (b + a's y,
     or shallower witnesses). *)
  (match results with
  | [ top; inner ] ->
      Helpers.check_ids doc "roots" [ "0" ] [ top.Gdmct.root ];
      Helpers.check_ids doc "inner root" [ "0.0" ] [ inner.Gdmct.root ];
      Helpers.check_fragment doc "inner tree"
        [ "0.0"; "0.0.0"; "0.0.1" ]
        inner.Gdmct.fragment;
      Alcotest.(check int) "inner edges" 2 inner.Gdmct.edges
  | l -> Alcotest.failf "expected 2 results, got %d" (List.length l));
  ()

let test_threshold_drops_large_trees () =
  let doc, q =
    query_of
      "<r><deep><d1><d2><d3><d4>w1</d4></d3></d2></d1></deep><w>w2</w></r>"
      [ "w1"; "w2" ]
  in
  ignore doc;
  Alcotest.(check int) "tight threshold drops the tree" 0
    (List.length (Gdmct.search ~max_edges:3 q));
  Alcotest.(check int) "loose threshold keeps it" 1
    (List.length (Gdmct.search ~max_edges:10 q))

let test_no_results_without_matches () =
  let _, q = query_of "<r><a>w1</a></r>" [ "w1"; "w9" ] in
  Alcotest.(check int) "empty" 0 (List.length (Gdmct.search q))

let gen_case = QCheck2.Gen.pair Helpers.gen_doc Helpers.gen_query

let print_case (doc, ws) =
  Printf.sprintf "query=%s doc=%s" (String.concat "," ws) (Helpers.print_doc doc)

let prop_roots_are_full_containers =
  QCheck2.Test.make ~name:"MCT roots are full containers" ~count:300
    ~print:print_case gen_case (fun (doc, ws) ->
      let q = Query.make (Xks_index.Inverted.build doc) ws in
      let fcs = Xks_lca.Tree_scan.full_containers doc q.Query.postings in
      List.for_all
        (fun (r : Gdmct.result) -> List.mem r.Gdmct.root fcs)
        (Gdmct.search q))

let prop_trees_connected_and_bounded =
  QCheck2.Test.make ~name:"MCTs are connected and within the threshold"
    ~count:300 ~print:print_case gen_case (fun (doc, ws) ->
      let q = Query.make (Xks_index.Inverted.build doc) ws in
      List.for_all
        (fun (r : Gdmct.result) ->
          r.Gdmct.edges <= 10
          && r.Gdmct.edges = Fragment.size r.Gdmct.fragment - 1
          && List.for_all
               (fun id ->
                 id = r.Gdmct.root
                 || Fragment.mem r.Gdmct.fragment (Tree.parents doc).(id))
               (Fragment.members_list r.Gdmct.fragment))
        (Gdmct.search q))

let prop_mct_not_larger_than_rtf =
  QCheck2.Test.make
    ~name:"an MCT never exceeds the raw RTF rooted at the same node"
    ~count:300 ~print:print_case gen_case (fun (doc, ws) ->
      let q = Query.make (Xks_index.Inverted.build doc) ws in
      let validrtf = Xks_core.Validrtf.run_query q in
      let raw_by_root =
        List.map
          (fun (rtf : Xks_core.Rtf.t) ->
            (rtf.Xks_core.Rtf.lca, Xks_core.Rtf.raw_fragment q rtf))
          validrtf.Xks_core.Pipeline.rtfs
      in
      List.for_all
        (fun (r : Gdmct.result) ->
          match List.assoc_opt r.Gdmct.root raw_by_root with
          | Some raw -> Fragment.size r.Gdmct.fragment <= Fragment.size raw
          | None -> true (* MCT at a non-ELCA root has no RTF to compare *))
        (Gdmct.search q))

let tests =
  [
    Alcotest.test_case "basic connecting trees" `Quick test_basic_mct;
    Alcotest.test_case "size threshold" `Quick test_threshold_drops_large_trees;
    Alcotest.test_case "no matches" `Quick test_no_results_without_matches;
    Helpers.qtest prop_roots_are_full_containers;
    Helpers.qtest prop_trees_connected_and_bounded;
    Helpers.qtest prop_mct_not_larger_than_rtf;
  ]
