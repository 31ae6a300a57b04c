(* The executable Definition 1/2 oracle, cross-validated against getRTF
   over the Indexed Stack LCAs (the paper's Section 4.3(1) claim). *)

module Query = Xks_core.Query
module Spec = Xks_core.Spec
module Rtf = Xks_core.Rtf

let query_of xml ws =
  let doc = Xks_xml.Parser.parse_string xml in
  Query.make (Xks_index.Inverted.build doc) ws

let test_ectq_singletons () =
  (* One node per keyword: ECTQ is the single combination. *)
  let q = query_of "<r><a>w1</a><b>w2</b></r>" [ "w1"; "w2" ] in
  Alcotest.(check int) "|ECTQ|" 1 (List.length (Spec.ectq q))

let test_ectq_counts_overlap () =
  (* D1 = {x}, D2 = {x, y}: (2^1-1)*(2^2-1) = 3 raw combinations but
     unions collapse to {x} and {x,y} twice -> 3 distinct? {x}, {x,y},
     {x} u {y} = {x,y} -> 2 distinct. *)
  let q = query_of "<r><a>w1 w2</a><b>w2</b></r>" [ "w1"; "w2" ] in
  Alcotest.(check int) "|ECTQ| after union dedup" 2 (List.length (Spec.ectq q))

let test_partitions_empty_when_no_match () =
  let q = query_of "<r><a>w1</a></r>" [ "w1"; "w9" ] in
  Alcotest.(check int) "no partitions" 0 (List.length (Spec.rtf_partitions q))

let test_size_guard () =
  (* 15 occurrences of one keyword exceed the per-list bound. *)
  let many =
    "<r>" ^ String.concat "" (List.init 15 (fun _ -> "<a>w1</a>")) ^ "<b>w2</b></r>"
  in
  let q = query_of many [ "w1"; "w2" ] in
  Alcotest.check_raises "guard"
    (Invalid_argument "Spec: input too large for the brute-force oracle")
    (fun () -> ignore (Spec.rtf_partitions q))

(* The central claim of Section 4.3(1): Definition 2 partitions = getRTF
   over ELCA nodes.  Property testing revealed the claim is not exact:
   Algorithm 1 dispatches a keyword node to its deepest ELCA
   {e ancestor}, while Definition 2's rule 3 admits a node only when its
   deepest full container {e is} the partition's LCA.  The two differ
   exactly on keyword nodes whose deepest full container is a non-ELCA
   node (Definition 2 then assigns them to no partition; Algorithm 1
   hoists them to the enclosing ELCA).  EXPERIMENTS.md discusses the
   discrepancy; the precise relationship is what we test. *)
let agree (q : Query.t) =
  let spec = Spec.rtf_partitions q in
  let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
  let fc_is id lca =
    Xks_lca.Probe.fc q.doc q.postings (Xks_lca.Probe.cursors q.postings) id
    = lca
  in
  let rtfs =
    Rtf.get_rtfs q lcas
    |> List.filter_map (fun (rtf : Rtf.t) ->
           let owned =
             List.filter
               (fun id -> fc_is id rtf.lca)
               (Array.to_list rtf.knodes)
           in
           if owned = [] then None else Some (rtf.lca, owned))
  in
  spec = rtfs

let test_hoisted_node_regression () =
  (* Shrunk counterexample found by the property below: the middle "a"
     node (w1) has a non-ELCA deepest full container (itself), so
     Definition 2 assigns it to no partition while Algorithm 1 hoists it
     into the root's RTF. *)
  let q =
    query_of "<a>w1 w2<a>w1<a><a>w1 w2</a></a></a></a>" [ "w1"; "w2" ]
  in
  let spec = Spec.rtf_partitions q in
  let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
  let rtfs = Rtf.get_rtfs q lcas in
  Alcotest.(check (list (pair int (list int))))
    "Definition 2 drops the hoisted node"
    [ (0, [ 0 ]); (3, [ 3 ]) ]
    spec;
  Alcotest.(check (list (list int)))
    "Algorithm 1 keeps it"
    [ [ 0; 1 ]; [ 3 ] ]
    (List.map (fun (r : Rtf.t) -> Array.to_list r.knodes) rtfs);
  Alcotest.(check bool) "relationship holds" true (agree q)

let test_agreement_nested () =
  let q =
    query_of "<r><m><c>w1 w2</c><t>w2</t></m><d>w1</d></r>" [ "w1"; "w2" ]
  in
  Alcotest.(check bool) "oracle agrees with getRTF" true (agree q)

let small_doc_gen =
  (* Very small documents keep the exponential oracle tractable. *)
  QCheck2.Gen.(
    map Xks_xml.Tree.build
    @@ sized_size (int_range 1 8)
    @@ fix (fun self n ->
           let label = oneofa [| "a"; "b" |] in
           let text = oneofa [| ""; "w1"; "w2"; "w1 w2" |] in
           if n <= 1 then map2 (fun l t -> Xks_xml.Tree.elem ~text:t l []) label text
           else
             bind (int_range 1 3) (fun c ->
                 map3
                   (fun l t children -> Xks_xml.Tree.elem ~text:t l children)
                   label text
                   (list_size (return c) (self ((n - 1) / c))))))

(* Keep the exponential oracle tractable: skip documents where the raw
   combination count gets large. *)
let oracle_feasible (q : Query.t) =
  Array.for_all (fun s -> Array.length s <= 6) q.postings
  && Array.fold_left (fun acc s -> acc * ((1 lsl Array.length s) - 1)) 1 q.postings
     <= 2000

let prop_spec_agrees_with_getrtf =
  QCheck2.Test.make
    ~name:"Definition 2 partitions = getRTF over Indexed Stack LCAs"
    ~count:150
    ~print:(fun doc -> Helpers.print_doc doc)
    small_doc_gen
    (fun doc ->
      let idx = Xks_index.Inverted.build doc in
      let q = Query.make idx [ "w1"; "w2" ] in
      (not (oracle_feasible q)) || agree q)

let prop_spec_lcas_are_elcas =
  QCheck2.Test.make ~name:"Definition 2 LCAs = ELCA set" ~count:150
    ~print:(fun doc -> Helpers.print_doc doc)
    small_doc_gen
    (fun doc ->
      let idx = Xks_index.Inverted.build doc in
      let q = Query.make idx [ "w1"; "w2" ] in
      if not (oracle_feasible q) then true
      else
        let spec_lcas = List.map fst (Spec.rtf_partitions q) in
        let elcas =
          if Query.has_results q then
            Xks_lca.Indexed_stack.elca q.doc q.postings
          else []
        in
        (* Every Definition-2 partition is rooted at an ELCA; ELCAs whose
           partition would be empty cannot occur (each ELCA owns its
           witnesses). *)
        spec_lcas = elcas)

let tests =
  [
    Alcotest.test_case "ECTQ with singleton lists" `Quick test_ectq_singletons;
    Alcotest.test_case "ECTQ union deduplication" `Quick test_ectq_counts_overlap;
    Alcotest.test_case "no partitions without matches" `Quick test_partitions_empty_when_no_match;
    Alcotest.test_case "size guard" `Quick test_size_guard;
    Alcotest.test_case "hoisted-node regression" `Quick test_hoisted_node_regression;
    Alcotest.test_case "nested agreement" `Quick test_agreement_nested;
    Helpers.qtest prop_spec_agrees_with_getrtf;
    Helpers.qtest prop_spec_lcas_are_elcas;
  ]
