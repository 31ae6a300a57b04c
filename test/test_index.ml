module Klist = Xks_index.Klist
module Cid = Xks_index.Cid
module Inverted = Xks_index.Inverted
module Shredder = Xks_index.Shredder
module Tree = Xks_xml.Tree

(* --- Klist --- *)

let test_klist_key_numbers () =
  (* Paper section 4.1: for a 5-keyword query, kList 01111 has key number
     15 and 00111 has key number 7. *)
  let k = 5 in
  let knum indices =
    List.fold_left
      (fun acc i -> Klist.union acc (Klist.singleton ~k i))
      Klist.empty indices
  in
  Alcotest.(check int) "01111 = 15" 15 (knum [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "00111 = 7" 7 (knum [ 2; 3; 4 ]);
  Alcotest.(check int) "10000 = 16" 16 (knum [ 0 ]);
  Alcotest.(check string) "pp" "01111"
    (Format.asprintf "%a" (Klist.pp ~k) (knum [ 1; 2; 3; 4 ]))

let test_klist_subset () =
  Alcotest.(check bool) "7 subset of 15" true (Klist.subset 7 15);
  Alcotest.(check bool) "15 not subset of 7" false (Klist.subset 15 7);
  Alcotest.(check bool) "strict" false (Klist.strict_subset 7 7);
  Alcotest.(check bool) "full" true (Klist.is_full ~k:4 15)

let test_klist_covered_by_any () =
  Alcotest.(check bool) "7 covered in [7; 15]" true
    (Klist.covered_by_any 7 [| 7; 15 |]);
  Alcotest.(check bool) "15 not covered in [7; 15]" false
    (Klist.covered_by_any 15 [| 7; 15 |]);
  (* 5 = 0101, 6 = 0110: larger but not a superset. *)
  Alcotest.(check bool) "5 not covered by 6" false
    (Klist.covered_by_any 5 [| 5; 6 |]);
  Alcotest.(check bool) "equal is not covering" false
    (Klist.covered_by_any 7 [| 7 |])

let test_klist_misc () =
  Alcotest.(check int) "cardinal" 3 (Klist.cardinal 7);
  Alcotest.(check (list int)) "indices of 01010 (k=5)" [ 1; 3 ]
    (Klist.to_indices ~k:5 10);
  Alcotest.check_raises "bad index" (Invalid_argument "Klist: keyword index")
    (fun () -> ignore (Klist.singleton ~k:3 3))

let prop_covered_matches_definition =
  QCheck2.Test.make ~name:"covered_by_any = exists strict superset" ~count:500
    QCheck2.Gen.(pair (int_range 0 63) (list_size (int_range 0 8) (int_range 0 63)))
    (fun (v, vs) ->
      let arr = Array.of_list (List.sort_uniq compare vs) in
      Klist.covered_by_any v arr
      = Array.exists (fun u -> Klist.strict_subset v u) arr)

(* --- Cid --- *)

let test_cid_approx () =
  let c = Cid.of_words Approx [ "match"; "keyword"; "xml"; "search" ] in
  Alcotest.(check string) "minmax" "(keyword, xml)"
    (Format.asprintf "%a" Cid.pp c);
  let d = Cid.of_words Approx [ "abstract" ] in
  Alcotest.(check string) "merge extends" "(abstract, xml)"
    (Format.asprintf "%a" Cid.pp (Cid.merge c d));
  Alcotest.(check bool) "empty merge is identity" true
    (Cid.equal c (Cid.merge Cid.empty c))

let test_cid_exact () =
  let a = Cid.of_words Exact [ "b"; "a"; "b" ] in
  let b = Cid.of_words Exact [ "c"; "a" ] in
  Alcotest.(check string) "sorted dedup" "{a, b}" (Format.asprintf "%a" Cid.pp a);
  Alcotest.(check string) "merge unions" "{a, b, c}"
    (Format.asprintf "%a" Cid.pp (Cid.merge a b));
  Alcotest.check_raises "mode mixing"
    (Invalid_argument "Cid.merge: mixing approximate and exact features")
    (fun () -> ignore (Cid.merge a (Cid.of_words Approx [ "x" ])))

let test_cid_collision () =
  (* The approximation deliberately conflates sets with equal extremes. *)
  let a = Cid.of_words Approx [ "a"; "z"; "m" ] in
  let b = Cid.of_words Approx [ "a"; "z"; "q" ] in
  Alcotest.(check bool) "approx collides" true (Cid.equal a b);
  Alcotest.(check int) "colliding features hash equally" (Cid.hash a)
    (Cid.hash b);
  let a' = Cid.of_words Exact [ "a"; "z"; "m" ] in
  let b' = Cid.of_words Exact [ "a"; "z"; "q" ] in
  Alcotest.(check bool) "exact distinguishes" false (Cid.equal a' b')

let gen_words =
  QCheck2.Gen.(list_size (int_range 0 6) (oneofa Helpers.words))

let prop_cid_merge_laws =
  QCheck2.Test.make ~name:"cid merge: commutative, associative, idempotent"
    ~count:500
    QCheck2.Gen.(triple gen_words gen_words gen_words)
    (fun (a, b, c) ->
      List.for_all
        (fun mode ->
          let ca = Cid.of_words mode a
          and cb = Cid.of_words mode b
          and cc = Cid.of_words mode c in
          Cid.equal (Cid.merge ca cb) (Cid.merge cb ca)
          && Cid.equal
               (Cid.merge ca (Cid.merge cb cc))
               (Cid.merge (Cid.merge ca cb) cc)
          && Cid.equal (Cid.merge ca ca) ca)
        [ Cid.Approx; Cid.Exact ])

let prop_cid_of_union_is_merge =
  QCheck2.Test.make ~name:"cid of a union = merge of cids" ~count:500
    QCheck2.Gen.(pair gen_words gen_words)
    (fun (a, b) ->
      List.for_all
        (fun mode ->
          let union = Cid.of_words mode (a @ b)
          and merged = Cid.merge (Cid.of_words mode a) (Cid.of_words mode b) in
          Cid.equal union merged && Cid.hash union = Cid.hash merged)
        [ Cid.Approx; Cid.Exact ])

let prop_klist_union_laws =
  QCheck2.Test.make ~name:"klist union: lattice laws and subset" ~count:500
    QCheck2.Gen.(pair (int_range 0 255) (int_range 0 255))
    (fun (a, b) ->
      let u = Klist.union a b in
      Klist.subset a u && Klist.subset b u
      && Klist.union a a = a
      && Klist.union a b = Klist.union b a
      && Klist.inter a u = a
      && (Klist.subset a b = (Klist.union a b = b)))

(* --- Inverted index --- *)

let sample_doc () =
  Tree.build
    (Tree.elem "lib"
       [
         Tree.elem ~text:"xml search" "book" [];
         Tree.elem ~text:"xml xml keyword" "book" [];
         Tree.elem ~attrs:[ ("topic", "search") ] "note" [];
       ])

let test_inverted_postings () =
  let doc = sample_doc () in
  let idx = Inverted.build doc in
  Alcotest.(check (list int)) "xml posting" [ 1; 2 ]
    (Array.to_list (Inverted.posting idx "xml"));
  Alcotest.(check (list int)) "search includes attribute" [ 1; 3 ]
    (Array.to_list (Inverted.posting idx "search"));
  Alcotest.(check (list int)) "label word" [ 1; 2 ]
    (Array.to_list (Inverted.posting idx "book"));
  Alcotest.(check (list int)) "absent word" []
    (Array.to_list (Inverted.posting idx "nosuchword"));
  Alcotest.(check (list int)) "case-insensitive lookup" [ 1; 2 ]
    (Array.to_list (Inverted.posting idx "XML"))

let test_inverted_counts () =
  let doc = sample_doc () in
  let idx = Inverted.build doc in
  Alcotest.(check int) "node count dedups" 2 (Inverted.node_count idx "xml");
  Alcotest.(check int) "occurrences count repeats" 3
    (Inverted.occurrence_count idx "xml");
  Alcotest.(check bool) "vocabulary sorted" true
    (let v = Inverted.vocabulary idx in
     List.sort String.compare v = v);
  match Inverted.top_words idx 1 with
  | [ (w, c) ] ->
      Alcotest.(check string) "top word" "xml" w;
      Alcotest.(check int) "top count" 3 c
  | other -> Alcotest.failf "expected 1 top word, got %d" (List.length other)

let prop_postings_sorted_and_complete =
  QCheck2.Test.make ~name:"postings are sorted and match node contents"
    ~count:150 ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let idx = Inverted.build doc in
      List.for_all
        (fun w ->
          let p = Inverted.posting idx w in
          let sorted = Array.to_list p = List.sort_uniq compare (Array.to_list p) in
          let expected =
            List.filter
              (fun id -> Tree.node_matches doc id w)
              (List.init (Tree.size doc) Fun.id)
          in
          sorted && Array.to_list p = expected)
        (Array.to_list Helpers.words))

(* Read-only sharing audit: Xks_exec workers share one index across
   domains, which is sound only if lookups never mutate the structure.
   [posting] must return the same physical array on every call — a
   lazily materialised (memoised) table would hand back a fresh array
   the first time and break the guarantee silently. *)
let test_inverted_immutable_lookups () =
  let doc = sample_doc () in
  let idx = Inverted.build doc in
  let before = Inverted.posting idx "xml" in
  (* Exercise every read path, including a search through the engine. *)
  ignore (Inverted.posting idx "nosuchword" : int array);
  ignore (Inverted.vocabulary idx : string list);
  ignore (Inverted.top_words idx 3 : (string * int) list);
  ignore
    (Xks_core.Engine.search
       (Xks_core.Engine.of_index idx)
       [ "xml"; "search" ]
    : Xks_core.Engine.hit list);
  Alcotest.(check bool) "same physical posting array" true
    (before == Inverted.posting idx "xml");
  (* Round-tripping through rows rebuilds an equal frozen table. *)
  let idx' = Inverted.of_rows doc (Inverted.to_rows idx) in
  Alcotest.(check (list int)) "row round-trip preserves postings"
    (Array.to_list before)
    (Array.to_list (Inverted.posting idx' "xml"))

(* --- Suggest --- *)

let test_levenshtein () =
  let d = Xks_index.Suggest.distance in
  Alcotest.(check int) "identity" 0 (d "xml" "xml");
  Alcotest.(check int) "substitution" 1 (d "xml" "xmk");
  Alcotest.(check int) "insertion" 1 (d "xml" "xmll");
  Alcotest.(check int) "deletion" 1 (d "xml" "xl");
  Alcotest.(check int) "kitten/sitting" 3 (d "kitten" "sitting");
  Alcotest.(check int) "cutoff caps the result" 2
    (d ~cutoff:1 "completely" "different")

let test_suggest () =
  let doc = sample_doc () in
  let idx = Inverted.build doc in
  (match Xks_index.Suggest.suggest idx "xmk" with
  | ("xml", 1) :: _ -> ()
  | other ->
      Alcotest.failf "expected xml first, got %d suggestions"
        (List.length other));
  Alcotest.(check (list (pair string int))) "far word: nothing" []
    (Xks_index.Suggest.suggest idx "zzzzzzzz");
  Alcotest.(check bool) "never suggests the word itself" true
    (List.for_all (fun (v, _) -> v <> "xml")
       (Xks_index.Suggest.suggest idx "xml"))

let test_correct_query () =
  let doc = sample_doc () in
  let idx = Inverted.build doc in
  match Xks_index.Suggest.correct_query idx [ "xml"; "serch"; "qqqqqq" ] with
  | [ ("xml", None); ("serch", Some "search"); ("qqqqqq", None) ] -> ()
  | l -> Alcotest.failf "unexpected corrections (%d entries)" (List.length l)

(* --- Shredder --- *)

let test_shredder_tables () =
  let doc = sample_doc () in
  let tables = Shredder.shred doc in
  let labels, elements, values = Shredder.row_count tables in
  Alcotest.(check int) "distinct labels" 3 labels;
  Alcotest.(check int) "one element row per node" (Tree.size doc) elements;
  Alcotest.(check bool) "values non-empty" true (values > 0);
  (* The value-table lookup answers like the inverted index. *)
  let deweys_of_rows rows =
    List.map (fun r -> Xks_xml.Dewey.to_string r.Shredder.v_dewey) rows
  in
  Alcotest.(check (list string)) "value lookup" [ "0.0"; "0.1" ]
    (deweys_of_rows (Shredder.find_values tables.Shredder.values "xml"));
  (* Attribute words carry the attribute name. *)
  let attr_row =
    List.find
      (fun r -> r.Shredder.v_keyword = "search" && r.Shredder.v_attribute <> "")
      tables.Shredder.values
  in
  Alcotest.(check string) "attribute name" "topic" attr_row.Shredder.v_attribute

let test_shredder_label_paths () =
  let doc = sample_doc () in
  let tables = Shredder.shred doc in
  let row = tables.Shredder.elements.(Helpers.id_at doc "0.1") in
  Alcotest.(check int) "level" 1 row.Shredder.e_level;
  Alcotest.(check (list int)) "label path root..self" [ 0; 1 ]
    row.Shredder.e_label_path

(* getKeywordNodes over the value table (the paper's Section 5.2 SQL
   lookup): the ids of the rows whose keyword is [w]. *)
let shredded_posting tables w =
  Array.of_list
    (List.map
       (fun r -> r.Shredder.v_id)
       (Shredder.find_values tables.Shredder.values w))

let test_sql_postings_match_inverted () =
  let doc = Xks_datagen.Paper_fixtures.publications () in
  let tables = Shredder.shred doc in
  let idx = Inverted.build doc in
  List.iter
    (fun w ->
      Alcotest.(check (list int))
        ("postings of " ^ w)
        (Array.to_list (Inverted.posting idx w))
        (Array.to_list (shredded_posting tables w)))
    [ "liu"; "keyword"; "xml"; "title"; "vldb"; "skyline"; "nosuchword" ]

let test_full_pipeline_via_sql () =
  (* Algorithm 1 with getKeywordNodes served by the value table. *)
  let doc = Xks_datagen.Paper_fixtures.publications () in
  let tables = Shredder.shred doc in
  let postings =
    Array.of_list
      (List.map (shredded_posting tables) Xks_datagen.Paper_fixtures.q2)
  in
  let lcas = Xks_lca.Indexed_stack.elca doc postings in
  Helpers.check_ids doc "same LCAs as the inverted-index path"
    [ "0.2.0"; "0.2.0.3.0" ] lcas

let prop_sql_postings_agree =
  QCheck2.Test.make ~name:"SQL postings = inverted index on random docs"
    ~count:100 ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let tables = Shredder.shred doc in
      let idx = Inverted.build doc in
      Array.for_all
        (fun w -> shredded_posting tables w = Inverted.posting idx w)
        Helpers.words)

(* Documents whose content exercises the tokenizer: mixed case,
   punctuation, stop words (also as labels and attribute names) and
   attribute values. *)
let gen_content_doc =
  let open QCheck2.Gen in
  let word =
    oneofa
      [| "xml"; "XML"; "Search"; "the"; "of"; "data-base"; "b2"; "zeta"; "alpha"; "x"; "42" |]
  in
  let text = map (String.concat " ") (list_size (int_range 0 3) word) in
  let attrs =
    list_size (int_range 0 2) (pair (oneofa [| "key"; "lang"; "the"; "Id" |]) text)
  in
  let label = oneofa [| "item"; "Title"; "of"; "a"; "zeta" |] in
  let node =
    sized_size (int_range 1 30) @@ fix (fun self n ->
        if n <= 1 then
          map3 (fun l t a -> Tree.elem ~attrs:a ~text:t l []) label text attrs
        else
          bind (int_range 1 (min 4 n)) (fun c ->
              map
                (fun (l, t, a, children) -> Tree.elem ~attrs:a ~text:t l children)
                (quad label text attrs (list_size (return c) (self ((n - 1) / c))))))
  in
  map Tree.build node

(* The index's integer features decode to the re-tokenised feature of
   every node, whether the index was built from the document or rebuilt
   from its rows. *)
let prop_ranked_features_decode =
  QCheck2.Test.make ~name:"ranked features = re-tokenised approx cIDs"
    ~count:300 ~print:Helpers.print_doc gen_content_doc (fun doc ->
      let agree idx =
        let tbl = Inverted.features idx in
        List.for_all
          (fun id ->
            Cid.equal
              (Cid.decode tbl tbl.nodes.(id))
              (Cid.of_words Cid.Approx (Tree.content_words doc id)))
          (List.init (Tree.size doc) Fun.id)
      in
      let idx = Inverted.build doc in
      agree idx && agree (Inverted.of_rows doc (Inverted.to_rows idx)))

let tests =
  [
    Alcotest.test_case "klist key numbers (fig 4)" `Quick test_klist_key_numbers;
    Alcotest.test_case "klist subset" `Quick test_klist_subset;
    Alcotest.test_case "klist covered_by_any" `Quick test_klist_covered_by_any;
    Alcotest.test_case "klist misc" `Quick test_klist_misc;
    Helpers.qtest prop_covered_matches_definition;
    Helpers.qtest prop_cid_merge_laws;
    Helpers.qtest prop_cid_of_union_is_merge;
    Helpers.qtest prop_klist_union_laws;
    Helpers.qtest prop_ranked_features_decode;
    Alcotest.test_case "cid approx (min,max)" `Quick test_cid_approx;
    Alcotest.test_case "cid exact" `Quick test_cid_exact;
    Alcotest.test_case "cid collision behaviour" `Quick test_cid_collision;
    Alcotest.test_case "inverted postings" `Quick test_inverted_postings;
    Alcotest.test_case "inverted counts" `Quick test_inverted_counts;
    Helpers.qtest prop_postings_sorted_and_complete;
    Alcotest.test_case "inverted lookups never mutate" `Quick
      test_inverted_immutable_lookups;
    Alcotest.test_case "levenshtein distance" `Quick test_levenshtein;
    Alcotest.test_case "suggestions" `Quick test_suggest;
    Alcotest.test_case "query correction" `Quick test_correct_query;
    Alcotest.test_case "shredder tables" `Quick test_shredder_tables;
    Alcotest.test_case "shredder label paths" `Quick test_shredder_label_paths;
    Alcotest.test_case "SQL postings = inverted index" `Quick
      test_sql_postings_match_inverted;
    Alcotest.test_case "pipeline via the SQL path" `Quick test_full_pipeline_via_sql;
    Helpers.qtest prop_sql_postings_agree;
  ]
