(* Pruning explanations: each Definition-4 rule pinned to nodes, and
   agreement with the actual pruning. *)

module Explain = Xks_core.Explain
module Prune = Xks_core.Prune
module Node_info = Xks_core.Node_info
module Query = Xks_core.Query
module Rtf = Xks_core.Rtf
module Fragment = Xks_core.Fragment

let setup xml ws =
  let doc = Xks_xml.Parser.parse_string xml in
  let q = Query.make (Xks_index.Inverted.build doc) ws in
  let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
  let rtf = List.hd (Rtf.get_rtfs q lcas) in
  (doc, Node_info.construct q rtf)

let reason_at doc decisions dewey =
  let id = Helpers.id_at doc dewey in
  match List.find_opt (fun (d : Explain.decision) -> d.Explain.node = id) decisions with
  | Some d -> d.Explain.reason
  | None -> Alcotest.failf "no decision for %s" dewey

let test_rules_pinned () =
  let doc, info =
    setup
      "<r><t>w1</t><p><x>w1</x></p><p>w1 w2 alpha</p><p>w1 w2 alpha</p><p>w1 \
       w2 beta</p><q>w3</q></r>"
      [ "w1"; "w2"; "w3" ]
  in
  let d = Explain.valid_contributor info in
  Alcotest.(check bool) "root" true (reason_at doc d "0" = Explain.Kept_root);
  Alcotest.(check bool) "rule 1 (t)" true
    (reason_at doc d "0.0" = Explain.Kept_unique_label);
  Alcotest.(check bool) "rule 1 (q)" true
    (reason_at doc d "0.5" = Explain.Kept_unique_label);
  (* p group: 0.1 {w1} covered by 0.2 {w1,w2}; 0.2 kept maximal; 0.3
     duplicates 0.2; 0.4 same keywords, distinct content. *)
  Alcotest.(check bool) "rule 2a discard" true
    (reason_at doc d "0.1" = Explain.Discarded_covered (Helpers.id_at doc "0.2"));
  Alcotest.(check bool) "descendant of a discard" true
    (reason_at doc d "0.1.0"
    = Explain.Discarded_with_ancestor (Helpers.id_at doc "0.1"));
  Alcotest.(check bool) "rule 2a keep" true
    (reason_at doc d "0.2" = Explain.Kept_maximal);
  Alcotest.(check bool) "rule 2b discard" true
    (reason_at doc d "0.3" = Explain.Discarded_duplicate (Helpers.id_at doc "0.2"));
  Alcotest.(check bool) "rule 2b keep" true
    (reason_at doc d "0.4" = Explain.Kept_distinct_content)

let test_contributor_label_blind () =
  let doc, info =
    setup "<r><t>w1</t><abs>w1 w2</abs><z>w3</z></r>" [ "w1"; "w2"; "w3" ]
  in
  let d = Explain.contributor info in
  Alcotest.(check bool) "t discarded across labels" true
    (reason_at doc d "0.0" = Explain.Discarded_covered (Helpers.id_at doc "0.1"));
  let dv = Explain.valid_contributor info in
  Alcotest.(check bool) "valid contributor keeps it" true
    (reason_at doc dv "0.0" = Explain.Kept_unique_label)

(* The Definition-4 vs Algorithm-1 pseudocode divergence: content
   features are compared only among equal keyword sets. *)
let test_cid_scoped_per_keyword_set () =
  (* Same label, different (maximal, incomparable) keyword sets, equal
     content features: both survive under Definition 4. *)
  let doc, info =
    setup "<r><p>w1 aa zz</p><p>w2 aa zz</p>w3</r>" [ "w1"; "w2"; "w3" ]
  in
  let d = Explain.valid_contributor info in
  Alcotest.(check bool) "first kept" true
    (reason_at doc d "0.0" = Explain.Kept_maximal);
  Alcotest.(check bool) "second kept despite equal cid" true
    (reason_at doc d "0.1" = Explain.Kept_maximal)

let test_render () =
  let doc, info = setup "<r><a>w1</a><b>w2</b></r>" [ "w1"; "w2" ] in
  let s = Explain.render doc (Explain.valid_contributor info) in
  Alcotest.(check bool) "mentions rule 1" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    List.exists (fun l -> l = "0.0 (a): kept: unique label among its siblings (rule 1)") lines)

(* Agreement with Prune on random inputs. *)
let prop_explain_matches_prune =
  QCheck2.Test.make ~name:"explanations agree with the pruning" ~count:300
    ~print:(fun (doc, ws) ->
      Printf.sprintf "query=%s doc=%s" (String.concat "," ws)
        (Helpers.print_doc doc))
    QCheck2.Gen.(pair Helpers.gen_doc Helpers.gen_query)
    (fun (doc, ws) ->
      let q = Query.make (Xks_index.Inverted.build doc) ws in
      let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
      List.for_all
        (fun rtf ->
          let info = Node_info.construct q rtf in
          let agree explain prune =
            let kept_ids =
              List.filter Explain.kept (explain info)
              |> List.map (fun (d : Explain.decision) -> d.Explain.node)
            in
            kept_ids = Fragment.members_list (prune info)
          in
          agree Explain.valid_contributor Prune.valid_contributor
          && agree Explain.contributor Prune.contributor)
        (Rtf.get_rtfs q lcas))

(* The hashed Definition-4 dedup in [Prune] against the list-based
   reference kept by [Explain], under both content-feature modes. *)
let prop_explain_matches_prune_both_modes =
  QCheck2.Test.make ~name:"valid contributor agrees with its reference in both cID modes"
    ~count:200
    ~print:(fun (doc, ws) ->
      Printf.sprintf "query=%s doc=%s" (String.concat "," ws)
        (Helpers.print_doc doc))
    QCheck2.Gen.(
      pair (oneof [ Helpers.gen_doc; Helpers.gen_wide_doc ]) Helpers.gen_query)
    (fun (doc, ws) ->
      let q = Query.make (Xks_index.Inverted.build doc) ws in
      let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
      List.for_all
        (fun cid_mode ->
          List.for_all
            (fun rtf ->
              let info = Node_info.construct ~cid_mode q rtf in
              let kept_ids =
                List.filter Explain.kept (Explain.valid_contributor info)
                |> List.map (fun (d : Explain.decision) -> d.Explain.node)
              in
              kept_ids = Fragment.members_list (Prune.valid_contributor info))
            (Rtf.get_rtfs q lcas))
        [ Xks_index.Cid.Approx; Xks_index.Cid.Exact ])

let prop_every_rtf_node_decided =
  QCheck2.Test.make ~name:"one decision per raw-RTF node" ~count:200
    ~print:(fun (doc, ws) ->
      Printf.sprintf "query=%s doc=%s" (String.concat "," ws)
        (Helpers.print_doc doc))
    QCheck2.Gen.(pair Helpers.gen_doc Helpers.gen_query)
    (fun (doc, ws) ->
      let q = Query.make (Xks_index.Inverted.build doc) ws in
      let lcas = Xks_lca.Indexed_stack.elca q.doc q.postings in
      List.for_all
        (fun rtf ->
          let info = Node_info.construct q rtf in
          let decided =
            List.map (fun (d : Explain.decision) -> d.Explain.node)
              (Explain.valid_contributor info)
          in
          let raw = Fragment.members_list (Prune.keep_all info) in
          decided = raw)
        (Rtf.get_rtfs q lcas))

let tests =
  [
    Alcotest.test_case "each rule pinned to a node" `Quick test_rules_pinned;
    Alcotest.test_case "contributor is label-blind" `Quick test_contributor_label_blind;
    Alcotest.test_case "cid comparison scoped per keyword set" `Quick
      test_cid_scoped_per_keyword_set;
    Alcotest.test_case "rendering" `Quick test_render;
    Helpers.qtest prop_explain_matches_prune;
    Helpers.qtest prop_explain_matches_prune_both_modes;
    Helpers.qtest prop_every_rtf_node_decided;
  ]
