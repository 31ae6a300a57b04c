(* Extensions beyond the paper: snippets, labeled terms, ElemRank
   structural ranking. *)

module Engine = Xks_core.Engine
module Query = Xks_core.Query
module Snippet = Xks_core.Snippet
module Labeled = Xks_core.Labeled
module Elemrank = Xks_core.Elemrank
module Tree = Xks_xml.Tree

let engine_of = Engine.of_string

(* --- snippets --- *)

let snippet_for engine query =
  let result = Engine.run engine query in
  let q = result.Xks_core.Pipeline.query in
  match result.Xks_core.Pipeline.fragments with
  | frag :: _ -> Snippet.of_fragment q frag
  | [] -> Alcotest.fail "expected a fragment"

let test_snippet_basic () =
  let engine =
    engine_of
      "<r><doc><t>the quick brown fox jumps over the lazy dog</t><u>unrelated \
       words entirely</u></doc></r>"
  in
  let s = snippet_for engine [ "fox" ] in
  Alcotest.(check string) "window with highlight"
    "the quick brown [fox] jumps over the ..." s

let test_snippet_multi_keyword () =
  let engine =
    engine_of "<r><a>alpha beta gamma</a><b>delta epsilon zeta</b></r>"
  in
  let s = snippet_for engine [ "beta"; "epsilon" ] in
  Alcotest.(check string) "two windows joined"
    "alpha [beta] gamma ... delta [epsilon] zeta" s

let test_snippet_label_match () =
  (* Keyword matched by an element label falls back to label rendering. *)
  let engine = engine_of "<r><title>some text here</title><x>other</x></r>" in
  let s = snippet_for engine [ "title" ] in
  Alcotest.(check string) "label fallback" "[title]: some text here" s

let test_snippet_custom_highlight () =
  let engine = engine_of "<r><a>just one keyword here</a></r>" in
  let result = Engine.run engine [ "keyword" ] in
  let q = result.Xks_core.Pipeline.query in
  let frag = List.hd result.Xks_core.Pipeline.fragments in
  let s =
    Snippet.of_fragment ~window:1 ~highlight:(fun w -> "<b>" ^ w ^ "</b>") q frag
  in
  Alcotest.(check string) "custom" "... one <b>keyword</b> here" s

let test_snippet_dedups_identical_windows () =
  (* Two keywords matching the same node only through its label and
     attribute name produce the same label-fallback piece under an
     erasing highlight; the snippet must show it once. *)
  let engine = engine_of "<r><ab cd=\"x\">text</ab><z>other</z></r>" in
  let result = Engine.run engine [ "ab"; "cd" ] in
  let q = result.Xks_core.Pipeline.query in
  let frag = List.hd result.Xks_core.Pipeline.fragments in
  let s = Snippet.of_fragment ~highlight:(fun _ -> "*") q frag in
  Alcotest.(check string) "identical pieces deduplicated" "*: text" s

(* --- labeled terms --- *)

let library =
  "<lib><book><title>xml handbook</title><note>xml notes</note></book><book><title>cooking</title><note>xml \
   recipes</note></book></lib>"

let test_parse_term () =
  let t = Labeled.parse_term "Title:XML" in
  Alcotest.(check (option string)) "label" (Some "title") t.Labeled.label;
  Alcotest.(check string) "keyword" "xml" t.Labeled.keyword;
  let bare = Labeled.parse_term "XML" in
  Alcotest.(check (option string)) "bare" None bare.Labeled.label;
  let label_only = Labeled.parse_term "title:" in
  Alcotest.(check string) "label-only keyword" "" label_only.Labeled.keyword;
  Alcotest.check_raises "empty" (Invalid_argument "Labeled.parse_term: malformed term ")
    (fun () -> ignore (Labeled.parse_term ""))

let test_labeled_posting () =
  let engine = engine_of library in
  let idx = Engine.index engine in
  let doc = Engine.doc engine in
  let ids term = Helpers.deweys_of doc (Array.to_list (Labeled.posting idx (Labeled.parse_term term))) in
  Alcotest.(check (list string)) "bare keyword"
    [ "0.0.0"; "0.0.1"; "0.1.1" ] (ids "xml");
  Alcotest.(check (list string)) "label restricted" [ "0.0.0" ] (ids "title:xml");
  Alcotest.(check (list string)) "label only" [ "0.0.0"; "0.1.0" ] (ids "title:");
  Alcotest.(check (list string)) "unknown label" [] (ids "nope:xml")

let test_labeled_search_narrows () =
  let engine = engine_of library in
  let broad = Engine.search engine [ "xml"; "cooking" ] in
  let narrow = Labeled.search engine [ "note:xml"; "cooking" ] in
  (* Bare: the cooking book's own note mentions xml -> its book is an
     SLCA.  Restricting xml to notes keeps the same shape here; but
     restricting to titles must push the result up. *)
  let titled = Labeled.search engine [ "title:xml"; "cooking" ] in
  let root_of hits =
    List.map
      (fun (h : Engine.hit) -> Helpers.dewey_str (Engine.doc engine) h.Engine.fragment.Xks_core.Fragment.root)
      hits
  in
  Alcotest.(check (list string)) "bare query" [ "0.1" ] (root_of broad);
  Alcotest.(check (list string)) "note-restricted" [ "0.1" ] (root_of narrow);
  Alcotest.(check (list string)) "title-restricted climbs to the lib root"
    [ "0" ] (root_of titled)

let test_labeled_no_results () =
  let engine = engine_of library in
  Alcotest.(check int) "no hit" 0
    (List.length (Labeled.search engine [ "title:recipes" ]))

(* --- ElemRank --- *)

let test_elemrank_sums_to_one () =
  let doc = Xks_datagen.Paper_fixtures.publications () in
  let pr = Elemrank.compute doc in
  let total =
    Tree.fold (fun acc n -> acc +. Elemrank.score pr n.Tree.id) 0.0 doc
  in
  Alcotest.(check (float 1e-6)) "normalised" 1.0 total

let test_elemrank_hub_beats_leaf () =
  let doc =
    Xks_xml.Parser.parse_string
      "<r><hub><a/><b/><c/><d/><e/></hub><leaf/></r>"
  in
  let pr = Elemrank.compute doc in
  let hub = Elemrank.score pr (Helpers.id_at doc "0.0") in
  let leaf = Elemrank.score pr (Helpers.id_at doc "0.1") in
  Alcotest.(check bool) "hub scores higher" true (hub > leaf)

let test_elemrank_top () =
  let doc = Xks_xml.Parser.parse_string "<r><hub><a/><b/><c/></hub></r>" in
  let pr = Elemrank.compute doc in
  match Elemrank.top pr 1 with
  | [ (id, _) ] -> Alcotest.(check int) "hub on top" (Helpers.id_at doc "0.0") id
  | _ -> Alcotest.fail "expected one row"

let test_rank_with_prior () =
  let engine =
    engine_of
      "<db><item><name>w1 w2</name></item><other>w1</other><misc>w2</misc></db>"
  in
  let result = Engine.run engine [ "w1"; "w2" ] in
  let prior = Elemrank.compute (Engine.doc engine) in
  let ranked = Xks_core.Ranking.rank_with_prior prior result in
  Alcotest.(check int) "same cardinality"
    (List.length result.Xks_core.Pipeline.fragments)
    (List.length ranked);
  List.iter
    (fun (s : Xks_core.Ranking.scored) ->
      Alcotest.(check bool) "positive scores" true (s.Xks_core.Ranking.score > 0.0))
    ranked

let test_singleton_document () =
  let doc = Xks_xml.Parser.parse_string "<only/>" in
  let pr = Elemrank.compute doc in
  Alcotest.(check (float 1e-9)) "lone node keeps all mass" 1.0
    (Elemrank.score pr 0)

let tests =
  [
    Alcotest.test_case "snippet: window and highlight" `Quick test_snippet_basic;
    Alcotest.test_case "snippet: multiple keywords" `Quick test_snippet_multi_keyword;
    Alcotest.test_case "snippet: label fallback" `Quick test_snippet_label_match;
    Alcotest.test_case "snippet: custom highlight" `Quick test_snippet_custom_highlight;
    Alcotest.test_case "snippet: window dedup" `Quick test_snippet_dedups_identical_windows;
    Alcotest.test_case "labeled: parse" `Quick test_parse_term;
    Alcotest.test_case "labeled: postings" `Quick test_labeled_posting;
    Alcotest.test_case "labeled: search narrows" `Quick test_labeled_search_narrows;
    Alcotest.test_case "labeled: no results" `Quick test_labeled_no_results;
    Alcotest.test_case "elemrank: normalisation" `Quick test_elemrank_sums_to_one;
    Alcotest.test_case "elemrank: hubs beat leaves" `Quick test_elemrank_hub_beats_leaf;
    Alcotest.test_case "elemrank: top" `Quick test_elemrank_top;
    Alcotest.test_case "elemrank: singleton document" `Quick test_singleton_document;
    Alcotest.test_case "ranking with structural prior" `Quick test_rank_with_prior;
  ]
