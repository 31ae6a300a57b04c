(* The four axiomatic properties (data/query monotonicity and
   consistency; Liu & Chen VLDB'08, claimed for ValidRTF by the paper's
   Section 4.3(2)).

   What the reproduction actually establishes — and what we assert:
   - both monotonicity properties hold for all three algorithms over
     thousands of random append-only edits;
   - both consistency properties hold for the original (SLCA-based)
     MaxMatch, the setting Liu & Chen proved them in;
   - for the all-LCA algorithms (ValidRTF, revised MaxMatch) data
     consistency is violated on rare inputs: an insertion can demote an
     interesting LCA node, hoisting its keyword nodes into the enclosing
     RTF, whose pruning outcome then changes without containing any
     inserted node.  A deterministic counterexample is kept below, and a
     seeded audit asserts the violation stays rare (< 1%).  EXPERIMENTS.md
     discusses the finding. *)

module Tree = Xks_xml.Tree
module Axioms = Xks_core.Axioms

let validrtf idx ws = Xks_core.Validrtf.run idx ws
let maxmatch idx ws = Xks_core.Maxmatch.run_revised idx ws
let maxmatch_original idx ws = Xks_core.Maxmatch.run_original idx ws

let base () =
  Xks_xml.Parser.parse_string
    "<lib><book><t>w1</t><abs>w2</abs></book><book><t>w1</t></book></lib>"

let test_data_monotonicity_insert_match () =
  let before = Tree.build (Tree.to_builder (base ())) in
  let after =
    Axioms.append_subtree before ~parent_id:0
      (Tree.elem "book" [ Tree.elem ~text:"w1 w2" "t" [] ])
  in
  let r =
    Axioms.data_monotonicity ~run:validrtf ~before ~after ~query:[ "w1"; "w2" ]
  in
  Alcotest.(check bool) "holds" true r.Axioms.ok;
  Alcotest.(check bool) "result count grew" true
    (r.Axioms.results_after > r.Axioms.results_before)

let test_query_monotonicity () =
  let doc = base () in
  let r =
    Axioms.query_monotonicity ~run:validrtf ~doc ~query:[ "w1" ] ~extra:"w2"
  in
  Alcotest.(check bool) "holds" true r.Axioms.ok;
  Alcotest.(check int) "w1 alone: every occurrence" 2 r.Axioms.results_before;
  Alcotest.(check int) "w1 w2: single result" 1 r.Axioms.results_after

let test_data_consistency () =
  let before = base () in
  let after =
    Axioms.append_subtree before ~parent_id:0
      (Tree.elem "book" [ Tree.elem ~text:"w1 w2" "t" [] ])
  in
  let r =
    Axioms.data_consistency ~run:validrtf ~before ~after ~query:[ "w1"; "w2" ]
  in
  Alcotest.(check bool) "holds" true r.Axioms.ok

let test_query_consistency () =
  let doc = base () in
  let r =
    Axioms.query_consistency ~run:validrtf ~doc ~query:[ "w1" ] ~extra:"w2"
  in
  Alcotest.(check bool) "holds" true r.Axioms.ok

let test_append_subtree_preserves_deweys () =
  let before = base () in
  let after = Axioms.append_subtree before ~parent_id:0 (Tree.elem "x" []) in
  for id = 0 to Tree.size before - 1 do
    match Tree.find_by_dewey after (Tree.dewey before id) with
    | Some m ->
        Alcotest.(check string)
          "same label at same dewey"
          (Tree.label_name before id)
          (Tree.label_name after m)
    | None -> Alcotest.fail "existing dewey disappeared"
  done

(* The known counterexample to data consistency under all-LCA semantics:
   inserting <a>w1</a> under 0.2 makes 0.2 a full container, so the
   root's RTF loses 0.2's keyword nodes; without them, node 0.3 is no
   longer covered by 0.2's keyword set and reappears in the root
   fragment, which displays it anew yet contains no inserted node. *)
let test_known_consistency_counterexample () =
  let doc =
    Xks_xml.Parser.parse_string
      "<a><a><a><a/><a/></a></a><a><a>w1</a><a>w3</a><a/></a><a>w3 \
       w0<a/><a/><a>w2 w0</a></a><a>w2<a><a/></a></a></a>"
  in
  let after =
    Axioms.append_subtree doc ~parent_id:(Helpers.id_at doc "0.2")
      (Tree.elem ~text:"w1" "a" [])
  in
  let query = [ "w1"; "w2"; "w3" ] in
  let r_revised =
    Axioms.data_consistency ~run:maxmatch ~before:doc ~after ~query
  in
  Alcotest.(check bool) "all-LCA semantics violates data consistency" false
    r_revised.Axioms.ok;
  let r_original =
    Axioms.data_consistency ~run:maxmatch_original ~before:doc ~after ~query
  in
  Alcotest.(check bool) "SLCA semantics satisfies it here" true
    r_original.Axioms.ok

(* --- Randomised monotonicity properties (no violation ever observed;
   asserted outright). --- *)

let gen_case =
  QCheck2.Gen.(
    tup4 Helpers.gen_doc Helpers.gen_query (int_range 0 1000)
      Helpers.gen_doc_sized)

let print_case (doc, ws, pick, extra) =
  Printf.sprintf "query=%s parent=%d doc=%s extra=%s" (String.concat "," ws)
    (pick mod Tree.size doc) (Helpers.print_doc doc)
    (Helpers.print_doc (Tree.build extra))

let prop_monotonicity name run =
  QCheck2.Test.make ~name ~count:150 ~print:print_case gen_case
    (fun (doc, ws, pick, extra) ->
      let parent_id = pick mod Tree.size doc in
      let after = Axioms.append_subtree doc ~parent_id extra in
      let dm = Axioms.data_monotonicity ~run ~before:doc ~after ~query:ws in
      let qm = Axioms.query_monotonicity ~run ~doc ~query:ws ~extra:"w0" in
      dm.Axioms.ok && qm.Axioms.ok)

let prop_validrtf_monotonicity =
  prop_monotonicity "ValidRTF: data and query monotonicity" validrtf

let prop_maxmatch_monotonicity =
  prop_monotonicity "revised MaxMatch: data and query monotonicity" maxmatch

let prop_original_all_axioms =
  QCheck2.Test.make ~name:"original MaxMatch: all four axioms" ~count:150
    ~print:print_case gen_case (fun (doc, ws, pick, extra) ->
      let parent_id = pick mod Tree.size doc in
      let after = Axioms.append_subtree doc ~parent_id extra in
      let run = maxmatch_original in
      (Axioms.data_monotonicity ~run ~before:doc ~after ~query:ws).Axioms.ok
      && (Axioms.data_consistency ~run ~before:doc ~after ~query:ws).Axioms.ok
      && (Axioms.query_monotonicity ~run ~doc ~query:ws ~extra:"w0").Axioms.ok
      && (Axioms.query_consistency ~run ~doc ~query:ws ~extra:"w0").Axioms.ok)

(* --- Seeded consistency audit for the all-LCA algorithms: violations
   exist but must stay rare (deterministic, so `dune runtest` is
   stable). --- *)

let consistency_audit name run () =
  let cases = 400 in
  let violations = ref 0 in
  for seed = 1 to cases do
    let rand = Random.State.make [| seed |] in
    let doc = QCheck2.Gen.generate1 ~rand Helpers.gen_doc in
    let extra = QCheck2.Gen.generate1 ~rand Helpers.gen_doc_sized in
    let ws = QCheck2.Gen.generate1 ~rand Helpers.gen_query in
    let parent_id = Random.State.int rand (Tree.size doc) in
    let after = Axioms.append_subtree doc ~parent_id extra in
    if
      not
        ((Axioms.data_consistency ~run ~before:doc ~after ~query:ws).Axioms.ok
        && (Axioms.query_consistency ~run ~doc ~query:ws ~extra:"w0").Axioms.ok)
    then incr violations
  done;
  if !violations * 100 >= cases then
    Alcotest.failf "%s: %d/%d consistency violations (expected rare)" name
      !violations cases

let tests =
  [
    Alcotest.test_case "data monotonicity" `Quick test_data_monotonicity_insert_match;
    Alcotest.test_case "query monotonicity" `Quick test_query_monotonicity;
    Alcotest.test_case "data consistency" `Quick test_data_consistency;
    Alcotest.test_case "query consistency" `Quick test_query_consistency;
    Alcotest.test_case "append preserves existing deweys" `Quick
      test_append_subtree_preserves_deweys;
    Alcotest.test_case "known all-LCA consistency counterexample" `Quick
      test_known_consistency_counterexample;
    Helpers.qtest prop_validrtf_monotonicity;
    Helpers.qtest prop_maxmatch_monotonicity;
    Helpers.qtest prop_original_all_axioms;
    Alcotest.test_case "consistency audit: ValidRTF" `Quick
      (consistency_audit "ValidRTF" validrtf);
    Alcotest.test_case "consistency audit: revised MaxMatch" `Quick
      (consistency_audit "revised MaxMatch" maxmatch);
  ]
