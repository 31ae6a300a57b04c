(* Golden tests: the paper's worked examples (Figures 2, 3, 4 and
   Examples 3-7) on the reconstructed Figure 1 data. *)

module Fixtures = Xks_datagen.Paper_fixtures
module Engine = Xks_core.Engine
module Pipeline = Xks_core.Pipeline
module Tree = Xks_xml.Tree
open Helpers

let publications = lazy (Fixtures.publications ())
let team = lazy (Fixtures.team ())

let pub_engine = lazy (Engine.of_doc (Lazy.force publications))
let team_engine = lazy (Engine.of_doc (Lazy.force team))

let run_validrtf engine q = Engine.run ~algorithm:Engine.Validrtf engine q
let run_maxmatch engine q = Engine.run ~algorithm:Engine.Maxmatch engine q

(* --- Figure 1(a) sanity: the keyword-node sets of Example 6 (Q3). --- *)

let test_q3_keyword_nodes () =
  let doc = Lazy.force publications in
  let idx = Engine.index (Lazy.force pub_engine) in
  let posting w = Array.to_list (Xks_index.Inverted.posting idx w) in
  check_ids doc "D1 (vldb)" [ "0.0" ] (posting "vldb");
  check_ids doc "D2 (title)" [ "0.0"; "0.2.0.1"; "0.2.1.1" ] (posting "title");
  let xks = [ "0.2.0.1"; "0.2.0.2"; "0.2.0.3.0" ] in
  check_ids doc "D3 (xml)" xks (posting "xml");
  check_ids doc "D4 (keyword)" xks (posting "keyword");
  check_ids doc "D5 (search)" xks (posting "search")

(* --- Example 3: keyword-node sets for Q2 = "liu keyword". --- *)

let test_q2_keyword_nodes () =
  let doc = Lazy.force publications in
  let idx = Engine.index (Lazy.force pub_engine) in
  let posting w = Array.to_list (Xks_index.Inverted.posting idx w) in
  check_ids doc "D1 (liu)" [ "0.2.0.0.0.0"; "0.2.0.3.0" ] (posting "liu");
  check_ids doc "D2 (keyword)"
    [ "0.2.0.1"; "0.2.0.2"; "0.2.0.3.0" ]
    (posting "keyword")

(* --- Q2: SLCA vs LCA (Figures 2(a), 2(b); Examples 1, 3, 4). --- *)

let test_q2_lcas () =
  let doc = Lazy.force publications in
  let result = run_validrtf (Lazy.force pub_engine) Fixtures.q2 in
  check_ids doc "interesting LCA nodes" [ "0.2.0"; "0.2.0.3.0" ] result.Pipeline.lcas;
  let q = result.Pipeline.query in
  let slcas = Xks_lca.Slca.indexed_lookup_eager q.doc q.postings in
  check_ids doc "SLCA" [ "0.2.0.3.0" ] slcas

let test_q2_partitions () =
  (* Example 4: the two RTF partitions are {r} and {n, t, a}. *)
  let doc = Lazy.force publications in
  let result = run_validrtf (Lazy.force pub_engine) Fixtures.q2 in
  match result.Pipeline.rtfs with
  | [ rtf1; rtf2 ] ->
      check_ids doc "partition of 0.2.0"
        [ "0.2.0.0.0.0"; "0.2.0.1"; "0.2.0.2" ]
        (Array.to_list rtf1.Xks_core.Rtf.knodes);
      check_ids doc "partition of 0.2.0.3.0" [ "0.2.0.3.0" ]
        (Array.to_list rtf2.Xks_core.Rtf.knodes)
  | rtfs -> Alcotest.failf "expected 2 RTFs, got %d" (List.length rtfs)

let test_q2_fragments () =
  let doc = Lazy.force publications in
  let result = run_validrtf (Lazy.force pub_engine) Fixtures.q2 in
  match result.Pipeline.fragments with
  | [ lca_frag; slca_frag ] ->
      (* Figure 2(b): the LCA-related fragment for Q2. *)
      check_fragment doc "figure 2(b)"
        [
          "0.2.0"; "0.2.0.0"; "0.2.0.0.0"; "0.2.0.0.0.0"; "0.2.0.1"; "0.2.0.2";
        ]
        lca_frag;
      (* Figure 2(a): the SLCA-based fragment is the ref node alone. *)
      check_fragment doc "figure 2(a)" [ "0.2.0.3.0" ] slca_frag
  | frags -> Alcotest.failf "expected 2 fragments, got %d" (List.length frags)

(* --- Q3: the running example (Figures 2(c), 2(d); Examples 6, 7). --- *)

let test_q3_lca () =
  let doc = Lazy.force publications in
  let result = run_validrtf (Lazy.force pub_engine) Fixtures.q3 in
  check_ids doc "only LCA is the root" [ "0" ] result.Pipeline.lcas

let test_q3_raw_rtf () =
  (* Figure 2(c): the raw fragment rooted at 0 (Publications). *)
  let doc = Lazy.force publications in
  let result = run_validrtf (Lazy.force pub_engine) Fixtures.q3 in
  let q = result.Pipeline.query in
  match result.Pipeline.rtfs with
  | [ rtf ] ->
      check_fragment doc "figure 2(c)"
        [
          "0"; "0.0"; "0.2"; "0.2.0"; "0.2.0.1"; "0.2.0.2"; "0.2.0.3";
          "0.2.0.3.0"; "0.2.1"; "0.2.1.1";
        ]
        (Xks_core.Rtf.raw_fragment q rtf)
  | rtfs -> Alcotest.failf "expected 1 RTF, got %d" (List.length rtfs)

let test_q3_meaningful_rtf () =
  (* Figure 2(d): ValidRTF prunes article 0.2.1 (covered keyword set) but
     keeps the distinct-label children of 0.2.0. *)
  let doc = Lazy.force publications in
  let result = run_validrtf (Lazy.force pub_engine) Fixtures.q3 in
  match result.Pipeline.fragments with
  | [ frag ] ->
      check_fragment doc "figure 2(d)"
        [
          "0"; "0.0"; "0.2"; "0.2.0"; "0.2.0.1"; "0.2.0.2"; "0.2.0.3";
          "0.2.0.3.0";
        ]
        frag
  | frags -> Alcotest.failf "expected 1 fragment, got %d" (List.length frags)

let test_q3_node_info () =
  (* Figure 4(b)/(c): kList of "0.2 (Articles)" is 01111 (key number 15)
     and its cID spans the articles' contents; the two article children
     form one label group with chkList [8; 15]. *)
  let doc = Lazy.force publications in
  let result = run_validrtf (Lazy.force pub_engine) Fixtures.q3 in
  let q = result.Pipeline.query in
  let rtf = List.hd result.Pipeline.rtfs in
  let info_tree = Xks_core.Node_info.construct q rtf in
  let info =
    match Xks_core.Node_info.info_of info_tree (id_at doc "0.2") with
    | Some i -> i
    | None -> Alcotest.fail "no info for 0.2"
  in
  Alcotest.(check int) "key number of 0.2" 15 (info.Xks_core.Node_info.klist :> int);
  (match Xks_core.Node_info.label_groups info with
  | [ g ] ->
      Alcotest.(check int) "counter" 2 g.Xks_core.Node_info.counter;
      Alcotest.(check (array int)) "chkList" [| 8; 15 |] g.Xks_core.Node_info.chklist
  | gs -> Alcotest.failf "expected 1 label group, got %d" (List.length gs));
  (* Section 4.1's cID example: the title node 0.2.0.1 has cID
     (keyword, xml). *)
  let title_info =
    match Xks_core.Node_info.info_of info_tree (id_at doc "0.2.0.1") with
    | Some i -> i
    | None -> Alcotest.fail "no info for 0.2.0.1"
  in
  Alcotest.(check string)
    "cID of 0.2.0.1" "(keyword, xml)"
    (Format.asprintf "%a" Xks_index.Cid.pp
       (Xks_core.Node_info.cid info_tree title_info))

(* --- Q1: the false positive problem (Figures 3(b), 3(c)). --- *)

let test_q1_false_positive () =
  let doc = Lazy.force publications in
  let engine = Lazy.force pub_engine in
  let fig3b =
    [
      "0.2.1"; "0.2.1.0"; "0.2.1.0.0"; "0.2.1.0.0.0"; "0.2.1.0.1";
      "0.2.1.0.1.0"; "0.2.1.1"; "0.2.1.2";
    ]
  in
  (let v = run_validrtf engine Fixtures.q1 in
   check_ids doc "unique LCA 0.2.1" [ "0.2.1" ] v.Pipeline.lcas;
   match v.Pipeline.fragments with
   | [ frag ] -> check_fragment doc "ValidRTF keeps the title (fig 3(b))" fig3b frag
   | frags -> Alcotest.failf "expected 1 fragment, got %d" (List.length frags));
  let m = run_maxmatch engine Fixtures.q1 in
  match m.Pipeline.fragments with
  | [ frag ] ->
      (* Figure 3(c): MaxMatch wrongly discards the title node. *)
      check_fragment doc "MaxMatch discards the title (fig 3(c))"
        (List.filter (fun d -> d <> "0.2.1.1") fig3b)
        frag
  | frags -> Alcotest.failf "expected 1 fragment, got %d" (List.length frags)

(* --- Q4: the redundancy problem (Figure 3(d)). --- *)

let test_q4_redundancy () =
  let doc = Lazy.force team in
  let engine = Lazy.force team_engine in
  let fig3d =
    [ "0"; "0.0"; "0.1"; "0.1.0"; "0.1.0.1"; "0.1.1"; "0.1.1.1"; "0.1.2"; "0.1.2.1" ]
  in
  (let m = run_maxmatch engine Fixtures.q4 in
   check_ids doc "unique LCA is the team root" [ "0" ] m.Pipeline.lcas;
   match m.Pipeline.fragments with
   | [ frag ] ->
       (* MaxMatch keeps both "forward" players. *)
       check_fragment doc "MaxMatch keeps duplicates (fig 3(d))" fig3d frag
   | frags -> Alcotest.failf "expected 1 fragment, got %d" (List.length frags));
  let v = run_validrtf engine Fixtures.q4 in
  match v.Pipeline.fragments with
  | [ frag ] ->
      (* ValidRTF drops the duplicated forward player 0.1.2. *)
      check_fragment doc "ValidRTF drops the duplicate forward"
        (List.filter (fun d -> d <> "0.1.2" && d <> "0.1.2.1") fig3d)
        frag
  | frags -> Alcotest.failf "expected 1 fragment, got %d" (List.length frags)

(* --- Q5: the positive example both mechanisms agree on (Figure 3(a)). --- *)

let test_q5_positive () =
  let doc = Lazy.force team in
  let engine = Lazy.force team_engine in
  let expected = [ "0.1.0"; "0.1.0.0"; "0.1.0.1" ] in
  let check name result =
    match result.Pipeline.fragments with
    | [ frag ] -> check_fragment doc name expected frag
    | frags -> Alcotest.failf "expected 1 fragment, got %d" (List.length frags)
  in
  let v = run_validrtf engine Fixtures.q5 in
  check_ids doc "LCA is player 0.1.0" [ "0.1.0" ] v.Pipeline.lcas;
  check "ValidRTF (fig 3(a))" v;
  check "MaxMatch (fig 3(a))" (run_maxmatch engine Fixtures.q5)

(* --- Original (SLCA-only) MaxMatch on the paper data. --- *)

let test_original_maxmatch_q2 () =
  (* The VLDB'08 baseline sees only the SLCA fragment of Figure 2(a);
     the interesting LCA node "0.2.0 (article)" is lost — the deficiency
     the paper's introduction illustrates. *)
  let doc = Lazy.force publications in
  let result =
    Engine.run ~algorithm:Engine.Maxmatch_original (Lazy.force pub_engine)
      Fixtures.q2
  in
  check_ids doc "SLCA only" [ "0.2.0.3.0" ] result.Pipeline.lcas;
  match result.Pipeline.fragments with
  | [ frag ] -> check_fragment doc "figure 2(a) only" [ "0.2.0.3.0" ] frag
  | frags -> Alcotest.failf "expected 1 fragment, got %d" (List.length frags)

let test_all_algorithms_agree_on_q5 () =
  (* Q5 has a single SLCA = single ELCA; all three algorithms coincide. *)
  let doc = Lazy.force team in
  let engine = Lazy.force team_engine in
  let frags algorithm =
    (Engine.run ~algorithm engine Fixtures.q5).Pipeline.fragments
    |> List.map Xks_core.Fragment.members_list
  in
  ignore doc;
  let v = frags Engine.Validrtf in
  Alcotest.(check bool) "revised agrees" true (frags Engine.Maxmatch = v);
  Alcotest.(check bool) "original agrees" true
    (frags Engine.Maxmatch_original = v)

(* --- The ECTQ cardinality claim of Example 3. --- *)

let test_example3_ectq_cardinality () =
  let engine = Lazy.force pub_engine in
  let q = Xks_core.Query.make (Engine.index engine) Fixtures.q2 in
  Alcotest.(check int) "|ECTQ| = 11 (not 21)" 11
    (List.length (Xks_core.Spec.ectq q))

(* --- Example 4 via the executable Definition 2. --- *)

let test_example4_spec_partitions () =
  let doc = Lazy.force publications in
  let engine = Lazy.force pub_engine in
  let q = Xks_core.Query.make (Engine.index engine) Fixtures.q2 in
  let parts = Xks_core.Spec.rtf_partitions q in
  match parts with
  | [ (l1, p1); (l2, p2) ] ->
      check_ids doc "first partition LCA" [ "0.2.0" ] [ l1 ];
      check_ids doc "first partition" [ "0.2.0.0.0.0"; "0.2.0.1"; "0.2.0.2" ] p1;
      check_ids doc "second partition LCA" [ "0.2.0.3.0" ] [ l2 ];
      check_ids doc "second partition" [ "0.2.0.3.0" ] p2
  | ps -> Alcotest.failf "expected 2 RTF partitions, got %d" (List.length ps)

let tests =
  [
    Alcotest.test_case "Q3 keyword nodes (example 6)" `Quick test_q3_keyword_nodes;
    Alcotest.test_case "Q2 keyword nodes (example 3)" `Quick test_q2_keyword_nodes;
    Alcotest.test_case "Q2 LCAs: SLCA vs LCA" `Quick test_q2_lcas;
    Alcotest.test_case "Q2 partitions (example 4)" `Quick test_q2_partitions;
    Alcotest.test_case "Q2 fragments (figures 2a, 2b)" `Quick test_q2_fragments;
    Alcotest.test_case "Q3 unique LCA" `Quick test_q3_lca;
    Alcotest.test_case "Q3 raw RTF (figure 2c)" `Quick test_q3_raw_rtf;
    Alcotest.test_case "Q3 meaningful RTF (figure 2d)" `Quick test_q3_meaningful_rtf;
    Alcotest.test_case "Q3 node data structure (figure 4)" `Quick test_q3_node_info;
    Alcotest.test_case "Q1 false positive fixed (figures 3b, 3c)" `Quick test_q1_false_positive;
    Alcotest.test_case "Q4 redundancy fixed (figure 3d)" `Quick test_q4_redundancy;
    Alcotest.test_case "Q5 positive example (figure 3a)" `Quick test_q5_positive;
    Alcotest.test_case "original MaxMatch sees only the SLCA (Q2)" `Quick
      test_original_maxmatch_q2;
    Alcotest.test_case "all algorithms agree on Q5" `Quick
      test_all_algorithms_agree_on_q5;
    Alcotest.test_case "ECTQ cardinality (example 3)" `Quick test_example3_ectq_cardinality;
    Alcotest.test_case "Definition 2 oracle (example 4)" `Quick test_example4_spec_partitions;
  ]
