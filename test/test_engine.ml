(* End-to-end engine facade and ranking. *)

module Engine = Xks_core.Engine
module Ranking = Xks_core.Ranking

let library_xml =
  "<library><shelf><book><title>xml keyword search basics</title><blurb>intro \
   text</blurb></book><book><title>cooking</title><blurb>xml-free \
   recipes</blurb></book></shelf><paper><title>xml search \
   engines</title></paper></library>"

let test_search_end_to_end () =
  let engine = Engine.of_string library_xml in
  let hits = Engine.search engine [ "xml"; "search" ] in
  Alcotest.(check bool) "has results" true (hits <> []);
  List.iter
    (fun (h : Engine.hit) ->
      Alcotest.(check bool) "positive score" true (h.Engine.score > 0.0))
    hits;
  (* Ranked order is by decreasing score. *)
  let scores = List.map (fun (h : Engine.hit) -> h.Engine.score) hits in
  Alcotest.(check (list (float 1e-9))) "sorted" (List.sort (Fun.flip compare) scores) scores

let test_search_no_results () =
  let engine = Engine.of_string library_xml in
  Alcotest.(check int) "missing keyword" 0
    (List.length (Engine.search engine [ "xml"; "zebra" ]))

let test_algorithms_differ_when_expected () =
  let engine =
    Engine.of_string
      "<r><t>w1</t><abs>w1 w2</abs><z>w3</z></r>"
  in
  let v = Engine.search engine ~algorithm:Engine.Validrtf [ "w1"; "w2"; "w3" ] in
  let m = Engine.search engine ~algorithm:Engine.Maxmatch [ "w1"; "w2"; "w3" ] in
  match (v, m) with
  | [ hv ], [ hm ] ->
      Alcotest.(check bool) "ValidRTF keeps more" true
        (Xks_core.Fragment.size hv.Engine.fragment
        > Xks_core.Fragment.size hm.Engine.fragment)
  | _ -> Alcotest.fail "expected one hit each"

let test_slca_flag () =
  let engine = Engine.of_string "<r><art><n>w1</n><t>w2</t><ref>w1 w2</ref></art></r>" in
  let hits = Engine.search ~rank:`Doc engine [ "w1"; "w2" ] in
  match hits with
  | [ outer; inner ] ->
      Alcotest.(check bool) "outer LCA is not an SLCA" false outer.Engine.is_slca;
      Alcotest.(check bool) "inner is the SLCA" true inner.Engine.is_slca
  | l -> Alcotest.failf "expected 2 hits, got %d" (List.length l)

let test_render_modes () =
  let engine = Engine.of_string library_xml in
  match Engine.search engine [ "cooking" ] with
  | [ hit ] ->
      let tree_view = Engine.render engine hit in
      let xml_view = Engine.render ~xml:true engine hit in
      Alcotest.(check bool) "tree view mentions the dewey" true
        (String.length tree_view > 0 && tree_view.[0] = '0');
      Alcotest.(check bool) "xml view is xml" true (xml_view.[0] = '<')
  | l -> Alcotest.failf "expected 1 hit, got %d" (List.length l)

let test_of_file () =
  let doc = Xks_datagen.Paper_fixtures.publications () in
  let path = Filename.temp_file "xks_engine" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Xks_xml.Writer.to_file path doc;
      let engine = Engine.of_file path in
      let hits = Engine.search engine Xks_datagen.Paper_fixtures.q2 in
      Alcotest.(check int) "two RTFs for Q2" 2 (List.length hits))

let test_stats () =
  let engine = Engine.of_string library_xml in
  Alcotest.(check bool) "stats mentions nodes" true
    (String.length (Engine.stats engine) > 0)

let test_empty_query_rejected () =
  let engine = Engine.of_string library_xml in
  Alcotest.check_raises "empty" (Invalid_argument "Query.make: empty query")
    (fun () -> ignore (Engine.search engine []))

(* Ranking sanity: a deep specific hit outranks the document root. *)
let test_ranking_prefers_specific () =
  let engine =
    Engine.of_string
      "<db><item><name>w1 w2</name></item><other>w1</other><misc>w2</misc></db>"
  in
  let hits = Engine.search engine [ "w1"; "w2" ] in
  match hits with
  | first :: _ ->
      Alcotest.(check bool) "deep fragment first" true
        (Xks_xml.Tree.depth (Engine.doc engine) first.Engine.rtf.Xks_core.Rtf.lca > 0)
  | [] -> Alcotest.fail "expected hits"

(* The degradation signal must survive an empty hit list: a budgeted
   query over a missing keyword exhausts on the present keywords'
   postings, degrades to the floor, and the floor returns zero hits —
   [search_result] (and the trace) still report it. *)
let test_search_result_degraded_empty () =
  let engine = Engine.of_string library_xml in
  let budget = Xks_robust.Budget.create ~max_nodes:0 () in
  let t = Xks_trace.Trace.create () in
  let result =
    Xks_trace.Trace.with_current t (fun () ->
        Engine.search_result ~budget engine [ "xml"; "zebra" ])
  in
  Alcotest.(check int) "no hits" 0 (List.length result.Engine.hits);
  Alcotest.(check bool) "degradation reported" true
    (result.Engine.degraded = Some Xks_robust.Budget.Node_budget);
  Alcotest.(check int) "exactly one degradation event" 1
    (Xks_trace.Trace.counter t Xks_trace.Trace.Degradations);
  Alcotest.(check (list string)) "reason recorded" [ "node budget" ]
    (Xks_trace.Trace.degradation_events t)

let test_search_result_degraded_nonempty () =
  let engine = Engine.of_string library_xml in
  let budget = Xks_robust.Budget.create ~max_nodes:0 () in
  let t = Xks_trace.Trace.create () in
  let result =
    Xks_trace.Trace.with_current t (fun () ->
        Engine.search_result ~budget engine [ "xml"; "search" ])
  in
  Alcotest.(check bool) "floor still answers" true (result.Engine.hits <> []);
  Alcotest.(check bool) "degraded" true
    (result.Engine.degraded = Some Xks_robust.Budget.Node_budget);
  Alcotest.(check int) "exactly one degradation event" 1
    (Xks_trace.Trace.counter t Xks_trace.Trace.Degradations);
  Alcotest.(check bool) "budget ticks counted" true
    (Xks_trace.Trace.counter t Xks_trace.Trace.Budget_ticks > 0)

let test_search_result_clean_run () =
  let engine = Engine.of_string library_xml in
  let result = Engine.search_result engine [ "xml"; "search" ] in
  Alcotest.(check bool) "hits" true (result.Engine.hits <> []);
  Alcotest.(check bool) "not degraded" true (result.Engine.degraded = None);
  (* search is search_result's hit list. *)
  Alcotest.(check int) "search agrees" (List.length result.Engine.hits)
    (List.length (Engine.search engine [ "xml"; "search" ]))

let tests =
  [
    Alcotest.test_case "end-to-end search" `Quick test_search_end_to_end;
    Alcotest.test_case "no results" `Quick test_search_no_results;
    Alcotest.test_case "algorithm choice matters" `Quick test_algorithms_differ_when_expected;
    Alcotest.test_case "slca flag" `Quick test_slca_flag;
    Alcotest.test_case "render modes" `Quick test_render_modes;
    Alcotest.test_case "of_file" `Quick test_of_file;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "empty query rejected" `Quick test_empty_query_rejected;
    Alcotest.test_case "ranking prefers specific results" `Quick test_ranking_prefers_specific;
    Alcotest.test_case "degraded empty result keeps the signal" `Quick
      test_search_result_degraded_empty;
    Alcotest.test_case "degraded non-empty result" `Quick
      test_search_result_degraded_nonempty;
    Alcotest.test_case "clean search_result" `Quick test_search_result_clean_run;
  ]
