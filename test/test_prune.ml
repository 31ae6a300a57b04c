(* Valid-contributor and contributor pruning over hand-built RTFs. *)

module Tree = Xks_xml.Tree
module Query = Xks_core.Query
module Rtf = Xks_core.Rtf
module Node_info = Xks_core.Node_info
module Prune = Xks_core.Prune
module Fragment = Xks_core.Fragment

let setup ?cid_mode xml ws =
  let doc = Xks_xml.Parser.parse_string xml in
  let q = Query.make (Xks_index.Inverted.build doc) ws in
  let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
  let rtf = List.hd (Rtf.get_rtfs q lcas) in
  (doc, Node_info.construct ?cid_mode q rtf)

let test_rule1_unique_label_kept () =
  (* A unique-labelled child survives even with a covered keyword set
     (w3 keeps the root as the only full container). *)
  let doc, info =
    setup "<r><t>w1</t><abs>w1 w2</abs><z>w3</z></r>" [ "w1"; "w2"; "w3" ]
  in
  Helpers.check_fragment doc "all children kept" [ "0"; "0.0"; "0.1"; "0.2" ]
    (Prune.valid_contributor info);
  (* The label-blind contributor discards the covered child. *)
  Helpers.check_fragment doc "contributor discards t" [ "0"; "0.1"; "0.2" ]
    (Prune.contributor info)

let test_rule2a_covered_same_label_discarded () =
  let doc, info =
    setup "<r><p>w1</p><p>w1 w2</p><q>w3</q></r>" [ "w1"; "w2"; "w3" ]
  in
  Helpers.check_fragment doc "covered same-label child discarded"
    [ "0"; "0.1"; "0.2" ]
    (Prune.valid_contributor info)

let test_rule2b_duplicate_content_discarded () =
  (* Equal keyword sets and equal contents: keep one representative. *)
  let doc, info =
    setup "<r><p>w1 alpha</p><p>w1 alpha</p><p>w1 beta</p>w2</r>"
      [ "w1"; "w2" ]
  in
  Helpers.check_fragment doc "one duplicate dropped" [ "0"; "0.0"; "0.2" ]
    (Prune.valid_contributor info);
  (* Contributor keeps all three (equal keyword sets never cover
     strictly). *)
  Helpers.check_fragment doc "contributor keeps all"
    [ "0"; "0.0"; "0.1"; "0.2" ]
    (Prune.contributor info)

let test_rule2b_distinct_content_kept () =
  let doc, info =
    setup "<r><p>w1 alpha</p><p>w1 beta</p>w2</r>" [ "w1"; "w2" ]
  in
  Helpers.check_fragment doc "distinct contents all kept"
    [ "0"; "0.0"; "0.1" ]
    (Prune.valid_contributor info)

let test_discard_removes_subtree () =
  let doc, info =
    setup "<r><p><x>w1</x></p><p>w1 w2</p><q>w3</q></r>" [ "w1"; "w2"; "w3" ]
  in
  Helpers.check_fragment doc "whole covered subtree gone"
    [ "0"; "0.1"; "0.2" ]
    (Prune.valid_contributor info)

let test_cid_collision_vs_exact () =
  (* (min,max) cannot tell {a..z, m} from {a..z, q}: approx mode drops a
     sibling that exact mode keeps — the paper's acknowledged
     approximation (footnote 6) and our A1 ablation. *)
  let xml = "<r><p>w1 aa zz mm</p><p>w1 aa zz qq</p>w2</r>" in
  let doc, info_approx = setup xml [ "w1"; "w2" ] in
  Helpers.check_fragment doc "approx conflates" [ "0"; "0.0" ]
    (Prune.valid_contributor info_approx);
  let _, info_exact = setup ~cid_mode:Xks_index.Cid.Exact xml [ "w1"; "w2" ] in
  Helpers.check_fragment doc "exact keeps both" [ "0"; "0.0"; "0.1" ]
    (Prune.valid_contributor info_exact)

let test_keep_all_is_raw () =
  let doc, info =
    setup "<r><p>w1</p><p>w1 w2</p><q>w3</q></r>" [ "w1"; "w2"; "w3" ]
  in
  Helpers.check_fragment doc "keep_all = raw RTF" [ "0"; "0.0"; "0.1"; "0.2" ]
    (Prune.keep_all info)

(* Node-info construction. *)

(* r > a(w1) > b(w1 w2) > c(w2), with d (no keyword) under a and e (w1)
   after a: the RTF rooted at a has an LCA that is itself a keyword node,
   each keyword node nested under the previous one, and non-members
   before (r), inside (d) and after (e) it. *)
let nested_xml = "<r><a>w1<b>w1 w2<c>w2</c></b><d>x</d></a><e>w1</e></r>"

let nested_rtf () =
  let doc = Xks_xml.Parser.parse_string nested_xml in
  let q = Query.make (Xks_index.Inverted.build doc) [ "w1"; "w2" ] in
  let id = Helpers.id_at doc in
  ( doc,
    q,
    { Rtf.lca = id "0.0"; knodes = [| id "0.0"; id "0.0.0"; id "0.0.0.0" |] } )

let test_nested_node_info () =
  let doc, q, rtf = nested_rtf () in
  let id = Helpers.id_at doc in
  List.iter
    (fun cid_mode ->
      let t = Node_info.construct ~cid_mode q rtf in
      Alcotest.(check (list string)) "matches the reference" []
        (List.map Xks_check.Invariant.to_string
           (Xks_check.Invariant.node_info ~cid_mode q rtf t));
      let root = Node_info.root t in
      Alcotest.(check int) "root kList = {w1, w2}" 3 (root.klist :> int);
      Alcotest.(check (list int)) "root children" [ id "0.0.0" ]
        (List.map (fun (i : Node_info.info) -> i.id) root.rtf_children);
      List.iter
        (fun (dewey, member) ->
          Alcotest.(check (option int)) ("info_of " ^ dewey)
            (if member then Some (id dewey) else None)
            (Option.map
               (fun (i : Node_info.info) -> i.id)
               (Node_info.info_of t (id dewey))))
        [ ("0", false); ("0.0", true); ("0.0.0", true); ("0.0.0.0", true);
          ("0.0.1", false); ("0.1", false) ])
    [ Xks_index.Cid.Approx; Xks_index.Cid.Exact ]

let test_construct_rejects_bad_knodes () =
  let doc, q, rtf = nested_rtf () in
  let id = Helpers.id_at doc in
  let a = id "0.0" and e = id "0.1" in
  Alcotest.check_raises "keyword node after the RTF root's subtree"
    (Invalid_argument
       (Printf.sprintf
          "Node_info.construct: keyword node %d is outside the subtree of \
           RTF root %d" e a))
    (fun () -> ignore (Node_info.construct q { rtf with knodes = [| a; e |] }));
  Alcotest.check_raises "keyword node before the RTF root"
    (Invalid_argument
       (Printf.sprintf
          "Node_info.construct: keyword node %d is outside the subtree of \
           RTF root %d" a (id "0.0.0")))
    (fun () ->
      ignore
        (Node_info.construct q
           { Rtf.lca = id "0.0.0"; knodes = [| a; id "0.0.0.0" |] }));
  Alcotest.check_raises "keyword nodes out of document order"
    (Invalid_argument
       (Printf.sprintf
          "Node_info.construct: keyword nodes %d and %d are out of document \
           order" (id "0.0.0.0") (id "0.0.0")))
    (fun () ->
      ignore
        (Node_info.construct q
           { rtf with knodes = [| a; id "0.0.0.0"; id "0.0.0" |] }))

(* Properties. *)

let gen_case = QCheck2.Gen.pair Helpers.gen_doc Helpers.gen_query

let print_case (doc, ws) =
  Printf.sprintf "query=%s doc=%s" (String.concat "," ws) (Helpers.print_doc doc)

let infos_of doc ws =
  let q = Query.make (Xks_index.Inverted.build doc) ws in
  let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
  List.map (fun rtf -> (q, rtf, Node_info.construct q rtf)) (Rtf.get_rtfs q lcas)

let prop_pruned_is_subset_of_raw =
  QCheck2.Test.make ~name:"pruned fragments are subsets of the raw RTF"
    ~count:300 ~print:print_case gen_case (fun (doc, ws) ->
      List.for_all
        (fun (_, _, info) ->
          let raw = Prune.keep_all info in
          let sub frag =
            List.for_all (Fragment.mem raw) (Fragment.members_list frag)
          in
          sub (Prune.valid_contributor info) && sub (Prune.contributor info))
        (infos_of doc ws))

let prop_pruned_still_covers_query =
  QCheck2.Test.make
    ~name:"valid-contributor pruning keeps every keyword represented"
    ~count:300 ~print:print_case gen_case (fun (doc, ws) ->
      List.for_all
        (fun ((q : Query.t), _, info) ->
          let frag = Prune.valid_contributor info in
          let mask =
            List.fold_left
              (fun acc id -> Xks_index.Klist.union acc (Query.node_klist q id))
              Xks_index.Klist.empty
              (Fragment.members_list frag)
          in
          Xks_index.Klist.is_full ~k:(Query.k q) mask)
        (infos_of doc ws))

let prop_pruned_connected =
  QCheck2.Test.make ~name:"pruned fragments remain connected" ~count:300
    ~print:print_case gen_case (fun (doc, ws) ->
      List.for_all
        (fun (_, (rtf : Rtf.t), info) ->
          let check frag =
            List.for_all
              (fun id ->
                id = rtf.Rtf.lca
                || Fragment.mem frag (Tree.parents doc).(id))
              (Fragment.members_list frag)
          in
          check (Prune.valid_contributor info) && check (Prune.contributor info))
        (infos_of doc ws))

let prop_root_always_kept =
  QCheck2.Test.make ~name:"the RTF root survives pruning" ~count:300
    ~print:print_case gen_case (fun (doc, ws) ->
      List.for_all
        (fun (_, (rtf : Rtf.t), info) ->
          Fragment.mem (Prune.valid_contributor info) rtf.Rtf.lca)
        (infos_of doc ws))

(* Every RTF the pipeline builds, plus one rooted at every node over the
   keyword nodes in its subtree — so LCAs that are keyword nodes and
   keyword nodes nested under keyword nodes both occur — checked in both
   cID modes against the reference, with [info_of] probed at every id of
   the document: before, inside and after the RTF. *)
let prop_construct_matches_reference =
  QCheck2.Test.make ~name:"node-info construction matches the reference"
    ~count:300 ~print:print_case gen_case (fun (doc, ws) ->
      let q = Query.make (Xks_index.Inverted.build doc) ws in
      let knodes = Rtf.keyword_node_ids q in
      let rooted_everywhere =
        List.init (Tree.size doc) (fun lca ->
            let last = (Tree.subtree_ends doc).(lca) in
            { Rtf.lca;
              knodes =
                Array.of_list
                  (List.filter (fun kn -> lca <= kn && kn <= last)
                     (Array.to_list knodes)) })
      in
      let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
      List.for_all
        (fun (rtf : Rtf.t) ->
          let raw = Rtf.raw_fragment q rtf in
          List.for_all
            (fun cid_mode ->
              let t = Node_info.construct ~cid_mode q rtf in
              Xks_check.Invariant.node_info ~cid_mode q rtf t = []
              && List.for_all
                   (fun id ->
                     match Node_info.info_of t id with
                     | Some info ->
                         info.Node_info.id = id && Fragment.mem raw id
                     | None -> not (Fragment.mem raw id))
                   (List.init (Tree.size doc) Fun.id))
            [ Xks_index.Cid.Approx; Xks_index.Cid.Exact ])
        (Rtf.get_rtfs q lcas @ rooted_everywhere))

(* Definition 4's dedup in a wide label group: 2,000 same-label
   siblings share one kList and cycle through 3 content features, so
   exactly the first sibling of each feature survives. *)
let test_wide_group_dedup () =
  let siblings =
    String.concat ""
      (List.init 2000 (fun i -> Printf.sprintf "<p>w1 zz%d</p>" (i mod 3)))
  in
  List.iter
    (fun cid_mode ->
      let doc, info =
        setup ~cid_mode ("<r>" ^ siblings ^ "w2</r>") [ "w1"; "w2" ]
      in
      Helpers.check_fragment doc "first of each content feature"
        [ "0"; "0.0"; "0.1"; "0.2" ]
        (Prune.valid_contributor info))
    [ Xks_index.Cid.Approx; Xks_index.Cid.Exact ]

let tests =
  [
    Alcotest.test_case "rule 1: unique label kept" `Quick test_rule1_unique_label_kept;
    Alcotest.test_case "rule 2a: covered same-label discarded" `Quick
      test_rule2a_covered_same_label_discarded;
    Alcotest.test_case "rule 2b: duplicate content discarded" `Quick
      test_rule2b_duplicate_content_discarded;
    Alcotest.test_case "rule 2b: distinct content kept" `Quick
      test_rule2b_distinct_content_kept;
    Alcotest.test_case "discard removes the subtree" `Quick test_discard_removes_subtree;
    Alcotest.test_case "cid approximation vs exact" `Quick test_cid_collision_vs_exact;
    Alcotest.test_case "keep_all" `Quick test_keep_all_is_raw;
    Alcotest.test_case "wide label group keeps one per content" `Quick
      test_wide_group_dedup;
    Alcotest.test_case "node info of a nested RTF" `Quick test_nested_node_info;
    Alcotest.test_case "construct rejects misplaced keyword nodes" `Quick
      test_construct_rejects_bad_knodes;
    Helpers.qtest prop_pruned_is_subset_of_raw;
    Helpers.qtest prop_pruned_still_covers_query;
    Helpers.qtest prop_pruned_connected;
    Helpers.qtest prop_root_always_kept;
    Helpers.qtest prop_construct_matches_reference;
  ]
