(* getRTF: keyword-node dispatch and raw fragment construction. *)

module Tree = Xks_xml.Tree
module Rtf = Xks_core.Rtf
module Query = Xks_core.Query
module Fragment = Xks_core.Fragment

let query_of xml ws =
  let doc = Xks_xml.Parser.parse_string xml in
  (doc, Query.make (Xks_index.Inverted.build doc) ws)

let elcas (q : Query.t) = Xks_lca.Indexed_stack.elca q.doc q.postings

let test_dispatch_to_deepest () =
  (* Both the ref-like node and the outer article are LCAs; the shared
     keyword node goes to the deepest one. *)
  let doc, q =
    query_of "<r><art><n>w1</n><t>w2</t><ref>w1 w2</ref></art></r>"
      [ "w1"; "w2" ]
  in
  let rtfs = Rtf.get_rtfs q (elcas q) in
  let knodes rtf = Helpers.deweys_of doc (Array.to_list rtf.Rtf.knodes) in
  match rtfs with
  | [ outer; inner ] ->
      Alcotest.(check (list string)) "outer partition" [ "0.0.0"; "0.0.1" ]
        (knodes outer);
      Alcotest.(check (list string)) "inner partition" [ "0.0.2" ] (knodes inner)
  | l -> Alcotest.failf "expected 2 RTFs, got %d" (List.length l)

let test_orphan_keyword_nodes_dropped () =
  (* w1 at 0.1 sits under no LCA (the root is not an ELCA because its only
     w2 witnesses are inside the full container 0.0). *)
  let doc, q =
    query_of "<r><m><c>w1 w2</c><t>w2</t></m><d>w1</d></r>" [ "w1"; "w2" ]
  in
  let rtfs = Rtf.get_rtfs q (elcas q) in
  match rtfs with
  | [ rtf ] ->
      Helpers.check_ids doc "only the SLCA partition" [ "0.0.0" ]
        (Array.to_list rtf.Rtf.knodes);
      Helpers.check_ids doc "lca" [ "0.0.0" ] [ rtf.Rtf.lca ]
  | l -> Alcotest.failf "expected 1 RTF, got %d" (List.length l)

let test_raw_fragment_paths () =
  let doc, q =
    query_of "<r><a><b><c>w1</c></b></a><d>w2</d></r>" [ "w1"; "w2" ]
  in
  let rtfs = Rtf.get_rtfs q (elcas q) in
  match rtfs with
  | [ rtf ] ->
      Helpers.check_fragment doc "paths up to the root"
        [ "0"; "0.0"; "0.0.0"; "0.0.0.0"; "0.1" ]
        (Rtf.raw_fragment q rtf)
  | l -> Alcotest.failf "expected 1 RTF, got %d" (List.length l)

let test_keyword_node_ids_union () =
  let _, q = query_of "<r><a>w1 w2</a><b>w2</b></r>" [ "w1"; "w2" ] in
  Alcotest.(check (list int)) "union, deduplicated" [ 1; 2 ]
    (Array.to_list (Rtf.keyword_node_ids q))

(* Properties on random documents. *)

let gen_case = QCheck2.Gen.pair Helpers.gen_doc Helpers.gen_query

let print_case (doc, ws) =
  Printf.sprintf "query=%s doc=%s" (String.concat "," ws) (Helpers.print_doc doc)

let make_query doc ws = Query.make (Xks_index.Inverted.build doc) ws

(* Also complete: every keyword node with an ELCA ancestor-or-self is
   dispatched (and no other), each partition is strictly ascending, and
   the RTFs come back in [lcas] order. *)
let prop_partitions_disjoint_and_assigned_deepest =
  QCheck2.Test.make ~name:"dispatch: disjoint, deepest LCA ancestor"
    ~count:300 ~print:print_case gen_case (fun (doc, ws) ->
      let q = make_query doc ws in
      let lcas = elcas q in
      let rtfs = Rtf.get_rtfs q lcas in
      let seen = Hashtbl.create 16 in
      let ends = Tree.subtree_ends doc in
      let under_some_lca kn =
        List.exists (fun a -> a <= kn && kn <= ends.(a)) lcas
      in
      let ascending a =
        let ok = ref true in
        Array.iteri (fun i x -> if i > 0 && a.(i - 1) >= x then ok := false) a;
        !ok
      in
      let dispatched =
        List.sort Int.compare
          (List.concat_map (fun rtf -> Array.to_list rtf.Rtf.knodes) rtfs)
      in
      List.map (fun rtf -> rtf.Rtf.lca) rtfs = lcas
      && List.for_all (fun rtf -> ascending rtf.Rtf.knodes) rtfs
      && dispatched
         = List.filter under_some_lca (Array.to_list (Rtf.keyword_node_ids q))
      && List.for_all
        (fun rtf ->
          Array.for_all
            (fun kn ->
              let fresh = not (Hashtbl.mem seen kn) in
              Hashtbl.add seen kn ();
              let lca_dewey = Tree.dewey doc rtf.Rtf.lca in
              let kn_dewey = Tree.dewey doc kn in
              let is_anc = Xks_xml.Dewey.is_ancestor_or_self lca_dewey kn_dewey in
              (* No deeper LCA is also an ancestor. *)
              let deepest =
                List.for_all
                  (fun other ->
                    other = rtf.Rtf.lca
                    || (not
                          (Xks_xml.Dewey.is_ancestor_or_self (Tree.dewey doc other)
                             kn_dewey))
                    || Xks_xml.Dewey.is_ancestor_or_self (Tree.dewey doc other)
                         lca_dewey)
                  lcas
              in
              fresh && is_anc && deepest)
            rtf.Rtf.knodes)
        rtfs)

let prop_every_rtf_covers_query =
  QCheck2.Test.make ~name:"every RTF partition covers all keywords"
    ~count:300 ~print:print_case gen_case (fun (doc, ws) ->
      let q = make_query doc ws in
      let rtfs = Rtf.get_rtfs q (elcas q) in
      List.for_all
        (fun rtf ->
          let mask =
            Array.fold_left
              (fun acc kn -> Xks_index.Klist.union acc (Query.node_klist q kn))
              Xks_index.Klist.empty rtf.Rtf.knodes
          in
          Xks_index.Klist.is_full ~k:(Query.k q) mask)
        rtfs)

let prop_raw_fragment_connected =
  QCheck2.Test.make ~name:"raw fragments are connected at their root"
    ~count:300 ~print:print_case gen_case (fun (doc, ws) ->
      let q = make_query doc ws in
      let rtfs = Rtf.get_rtfs q (elcas q) in
      List.for_all
        (fun rtf ->
          let frag = Rtf.raw_fragment q rtf in
          List.for_all
            (fun id ->
              id = rtf.Rtf.lca
              || Fragment.mem frag (Tree.parents doc).(id))
            (Fragment.members_list frag))
        rtfs)

let tests =
  [
    Alcotest.test_case "dispatch to the deepest LCA" `Quick test_dispatch_to_deepest;
    Alcotest.test_case "orphan keyword nodes dropped" `Quick test_orphan_keyword_nodes_dropped;
    Alcotest.test_case "raw fragment paths" `Quick test_raw_fragment_paths;
    Alcotest.test_case "keyword node union" `Quick test_keyword_node_ids_union;
    Helpers.qtest prop_partitions_disjoint_and_assigned_deepest;
    Helpers.qtest prop_every_rtf_covers_query;
    Helpers.qtest prop_raw_fragment_connected;
  ]
