module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey

let sample () =
  Tree.build
    (Tree.elem "r"
       [
         Tree.elem ~text:"one two" "ax" [];
         Tree.elem "b"
           [ Tree.elem ~text:"three" "ax" []; Tree.elem ~attrs:[ ("kk", "four") ] "c" [] ];
       ])

let test_ids_are_preorder () =
  let doc = sample () in
  let ids = Tree.fold (fun acc n -> n.Tree.id :: acc) [] doc in
  Alcotest.(check (list int)) "dense preorder ids" [ 4; 3; 2; 1; 0 ] ids;
  Tree.iter
    (fun n ->
      let by_dewey = Tree.find_by_dewey doc n.Tree.dewey in
      Alcotest.(check bool) "dewey lookup finds the node" true
        (match by_dewey with Some m -> m.Tree.id = n.Tree.id | None -> false))
    doc

let test_subtree_ranges () =
  let doc = sample () in
  let b = Tree.node doc (Helpers.id_at doc "0.1") in
  Alcotest.(check int) "subtree end of b" 4 b.Tree.subtree_end;
  Alcotest.(check bool) "in_subtree" true
    (Tree.in_subtree ~root:b (Tree.node doc (Helpers.id_at doc "0.1.1")));
  Alcotest.(check bool) "not in_subtree" false
    (Tree.in_subtree ~root:b (Tree.node doc (Helpers.id_at doc "0.0")))

let test_parents () =
  let doc = sample () in
  let leaf = Tree.node doc (Helpers.id_at doc "0.1.0") in
  (match Tree.parent_node doc leaf with
  | Some p -> Alcotest.(check string) "parent" "b" (Tree.label_name doc p)
  | None -> Alcotest.fail "leaf has a parent");
  Alcotest.(check bool) "root has no parent" true
    (Tree.parent_node doc (Tree.root doc) = None)

let test_content_words () =
  let doc = sample () in
  let words id = Tree.content_words doc (Tree.node doc (Helpers.id_at doc id)) in
  Alcotest.(check (list string)) "label + text" [ "ax"; "one"; "two" ] (words "0.0");
  Alcotest.(check (list string)) "attrs included" [ "c"; "four"; "kk" ] (words "0.1.1");
  Alcotest.(check bool) "node_matches" true
    (Tree.node_matches doc (Tree.node doc (Helpers.id_at doc "0.0")) "two")

let test_insert_subtree () =
  let doc = sample () in
  let doc' =
    Tree.insert_subtree doc
      ~parent_id:(Helpers.id_at doc "0.1")
      ~pos:1
      (Tree.elem ~text:"five" "d" [])
  in
  Alcotest.(check int) "one more node" (Tree.size doc + 1) (Tree.size doc');
  Alcotest.(check string) "inserted at 0.1.1" "d"
    (Tree.label_name doc' (Tree.node doc' (Helpers.id_at doc' "0.1.1")));
  Alcotest.(check string) "old 0.1.1 shifted to 0.1.2" "c"
    (Tree.label_name doc' (Tree.node doc' (Helpers.id_at doc' "0.1.2")))

let test_insert_invalid () =
  let doc = sample () in
  Alcotest.check_raises "bad pos" (Invalid_argument "Tree.insert_subtree: pos")
    (fun () ->
      ignore
        (Tree.insert_subtree doc ~parent_id:0 ~pos:99 (Tree.elem "x" [])))

let test_delete_subtree () =
  let doc = sample () in
  let doc' = Tree.delete_subtree doc ~id:(Helpers.id_at doc "0.1") in
  Alcotest.(check int) "subtree removed" 2 (Tree.size doc');
  Alcotest.check_raises "cannot delete the root"
    (Invalid_argument "Tree.delete_subtree: id") (fun () ->
      ignore (Tree.delete_subtree doc ~id:0))

let test_builder_roundtrip () =
  let doc = sample () in
  let doc' = Tree.build (Tree.to_builder doc) in
  Alcotest.(check string)
    "identical rendering"
    (Xks_xml.Writer.to_string doc)
    (Xks_xml.Writer.to_string doc')

let prop_subtree_end_matches_range =
  QCheck2.Test.make ~name:"subtree_end = id + subtree size - 1" ~count:200
    ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let rec size (n : Tree.node) =
        Array.fold_left (fun acc c -> acc + size c) 1 n.Tree.children
      in
      Tree.fold
        (fun acc n -> acc && n.Tree.subtree_end = n.Tree.id + size n - 1)
        true doc)

let prop_dewey_order_is_id_order =
  QCheck2.Test.make ~name:"dewey order agrees with id order" ~count:200
    ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      Tree.fold
        (fun acc a ->
          acc
          && Tree.fold
               (fun acc b ->
                 acc
                 && compare (Dewey.compare a.Tree.dewey b.Tree.dewey) 0
                    = compare (compare a.Tree.id b.Tree.id) 0)
               true doc)
        true doc)

let prop_parent_pointers =
  QCheck2.Test.make ~name:"parent pointers match dewey parents" ~count:200
    ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      Tree.fold
        (fun acc n ->
          acc
          &&
          match Tree.parent_node doc n with
          | None -> n.Tree.id = 0
          | Some p -> (
              match Dewey.parent n.Tree.dewey with
              | Some d -> Dewey.equal d p.Tree.dewey
              | None -> false))
        true doc)

(* The flat arrays repeat the node records' parent, subtree end and
   label, on built documents and after each functional edit. *)
let flat_arrays_agree doc =
  let n = Tree.size doc in
  let parents = Tree.parents doc
  and ends = Tree.subtree_ends doc
  and labels = Tree.label_ids doc in
  Array.length parents = n
  && Array.length ends = n
  && Array.length labels = n
  && Tree.fold
       (fun ok (node : Tree.node) ->
         ok
         && parents.(node.id) = node.parent
         && ends.(node.id) = node.subtree_end
         && labels.(node.id) = node.label)
       true doc

let prop_flat_arrays_agree =
  QCheck2.Test.make ~name:"flat arrays agree with the node records"
    ~count:300
    ~print:(fun (doc, _, _, _) -> Helpers.print_doc doc)
    QCheck2.Gen.(
      quad Helpers.gen_doc Helpers.gen_doc_sized (int_range 0 1000)
        (int_range 0 1000))
    (fun (doc, b, r1, r2) ->
      let n = Tree.size doc in
      let parent_id = r1 mod n in
      let pos = r2 mod (Array.length (Tree.node doc parent_id).children + 1) in
      flat_arrays_agree doc
      && flat_arrays_agree (Tree.insert_subtree doc ~parent_id ~pos b)
      && (n = 1 || flat_arrays_agree (Tree.delete_subtree doc ~id:(1 + (r1 mod (n - 1))))))

(* A draft takes exactly one root, closed once, before it freezes. *)
let test_draft_rejects_unbalanced_events () =
  let invalid what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  invalid "finish with nothing open" (fun () -> Tree.finish (Tree.draft ()) "");
  invalid "freeze an empty draft" (fun () -> Tree.freeze (Tree.draft ()));
  let d = Tree.draft () in
  Tree.start d "a" [];
  Tree.start d "b" [];
  Tree.finish d "x";
  invalid "freeze with the root open" (fun () -> Tree.freeze d);
  Tree.finish d "";
  invalid "a second root" (fun () -> Tree.start d "c" []);
  let doc = Tree.freeze d in
  Alcotest.(check (list string)) "the tree" [ "0"; "0.0" ]
    (List.map (fun (n : Tree.node) -> Dewey.to_string n.dewey)
       (List.rev (Tree.fold (fun acc n -> n :: acc) [] doc)));
  Alcotest.(check string) "the child's text" "x" (Tree.node doc 1).text

let tests =
  [
    Alcotest.test_case "draft rejects unbalanced events" `Quick
      test_draft_rejects_unbalanced_events;
    Alcotest.test_case "preorder ids and dewey lookup" `Quick test_ids_are_preorder;
    Alcotest.test_case "subtree ranges" `Quick test_subtree_ranges;
    Alcotest.test_case "parent navigation" `Quick test_parents;
    Alcotest.test_case "content words" `Quick test_content_words;
    Alcotest.test_case "insert_subtree" `Quick test_insert_subtree;
    Alcotest.test_case "insert_subtree validation" `Quick test_insert_invalid;
    Alcotest.test_case "delete_subtree" `Quick test_delete_subtree;
    Alcotest.test_case "builder round-trip" `Quick test_builder_roundtrip;
    Helpers.qtest prop_subtree_end_matches_range;
    Helpers.qtest prop_dewey_order_is_id_order;
    Helpers.qtest prop_parent_pointers;
    Helpers.qtest prop_flat_arrays_agree;
  ]
