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
  Alcotest.(check (list string)) "dense preorder ids"
    [ "r"; "ax"; "b"; "ax"; "c" ]
    (List.init (Tree.size doc) (Tree.label_name doc));
  for id = 0 to Tree.size doc - 1 do
    Alcotest.(check (option int)) "dewey lookup finds the node" (Some id)
      (Tree.find_by_dewey doc (Tree.dewey doc id))
  done

let test_subtree_ranges () =
  let doc = sample () in
  let b = Helpers.id_at doc "0.1" in
  Alcotest.(check int) "subtree end of b" 4 (Tree.subtree_ends doc).(b);
  Alcotest.(check (list int)) "children of b"
    (Helpers.ids_at doc [ "0.1.0"; "0.1.1" ])
    (List.rev (Tree.fold_children (fun acc c -> c :: acc) [] doc b))

let test_parents () =
  let doc = sample () in
  let leaf = Helpers.id_at doc "0.1.0" in
  Alcotest.(check string) "parent" "b"
    (Tree.label_name doc (Tree.parents doc).(leaf));
  Alcotest.(check int) "root has no parent" (-1) (Tree.parents doc).(0);
  Alcotest.(check (list int)) "depths" [ 0; 1; 1; 2; 2 ]
    (List.init (Tree.size doc) (Tree.depth doc))

let test_content_words () =
  let doc = sample () in
  let words id = Tree.content_words doc (Helpers.id_at doc id) in
  Alcotest.(check (list string)) "label + text" [ "ax"; "one"; "two" ] (words "0.0");
  Alcotest.(check (list string)) "attrs included" [ "c"; "four"; "kk" ] (words "0.1.1");
  Alcotest.(check bool) "node_matches" true
    (Tree.node_matches doc (Helpers.id_at doc "0.0") "two")

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
    (Tree.label_name doc' (Helpers.id_at doc' "0.1.1"));
  Alcotest.(check string) "old 0.1.1 shifted to 0.1.2" "c"
    (Tree.label_name doc' (Helpers.id_at doc' "0.1.2"))

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
      let rec size id = Tree.fold_children (fun acc c -> acc + size c) 1 doc id in
      List.for_all
        (fun id -> (Tree.subtree_ends doc).(id) = id + size id - 1)
        (List.init (Tree.size doc) Fun.id))

let prop_dewey_order_is_id_order =
  QCheck2.Test.make ~name:"dewey order agrees with id order" ~count:200
    ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      let ids = List.init (Tree.size doc) Fun.id in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              compare (Dewey.compare (Tree.dewey doc a) (Tree.dewey doc b)) 0
              = compare (compare a b) 0)
            ids)
        ids)

let prop_parent_pointers =
  QCheck2.Test.make ~name:"parent pointers match dewey parents" ~count:200
    ~print:Helpers.print_doc Helpers.gen_doc (fun doc ->
      List.for_all
        (fun id ->
          match ((Tree.parents doc).(id), Dewey.parent (Tree.dewey doc id)) with
          | -1, None -> id = 0
          | p, Some d -> p >= 0 && Dewey.equal d (Tree.dewey doc p)
          | _, None -> false)
        (List.init (Tree.size doc) Fun.id))

(* Every column and every derived accessor says what the reference
   says: the spec numbered in preorder, independently of [Tree]. *)
let agrees_with_reference spec =
  let doc = Helpers.doc_of_spec spec and r = Helpers.reference spec in
  let agrees id (n : Helpers.reference_node) =
    let dewey = Dewey.of_list n.r_dewey in
    let next_sibling = Dewey.child (Tree.dewey doc id) (List.length n.r_children) in
    (Tree.parents doc).(id) = n.r_parent
    && (Tree.subtree_ends doc).(id) = n.r_last
    && String.equal (Tree.label_name doc id) n.r_label
    && String.equal
         (Xks_xml.Label.name (Tree.labels doc) (Tree.label_ids doc).(id))
         n.r_label
    && String.equal (Tree.text doc id) n.r_text
    && Tree.attrs doc id = n.r_attrs
    && Dewey.equal (Tree.dewey doc id) dewey
    && (n.r_parent < 0
       || Dewey.component (Tree.dewey doc id) (Tree.depth doc id - 1) = n.r_rank)
    && Tree.depth doc id = List.length n.r_dewey
    && List.rev (Tree.fold_children (fun acc c -> c :: acc) [] doc id) = n.r_children
    && Tree.find_by_dewey doc dewey = Some id
    && Tree.find_by_dewey doc (Tree.dewey doc id) = Some id
    && Tree.find_by_dewey doc next_sibling = None
  in
  Tree.size doc = Array.length r
  && Array.length (Tree.parents doc) = Array.length r
  && Array.length (Tree.subtree_ends doc) = Array.length r
  && Array.length (Tree.label_ids doc) = Array.length r
  && Array.for_all Fun.id (Array.mapi agrees r)

let prop_columns_agree_with_reference =
  QCheck2.Test.make ~name:"columns agree with a preorder reference"
    ~count:300
    ~print:(fun (s, _, _, _) -> Helpers.print_doc (Helpers.doc_of_spec s))
    QCheck2.Gen.(
      quad
        (oneof [ Helpers.gen_spec_sized; Helpers.gen_rich_spec ])
        Helpers.gen_rich_spec (int_range 0 1000) (int_range 0 1000))
    (fun (s, sub, r1, r2) ->
      let doc = Helpers.doc_of_spec s in
      let n = Tree.size doc in
      let parent_id = r1 mod n in
      let pos = r2 mod (List.length (Helpers.reference s).(parent_id).r_children + 1) in
      let victim = 1 + (r1 mod max 1 (n - 1)) in
      let same_doc spec t =
        String.equal (Helpers.print_doc (Helpers.doc_of_spec spec)) (Helpers.print_doc t)
      in
      agrees_with_reference s
      && agrees_with_reference (Helpers.spec_insert s ~parent_id ~pos sub)
      && same_doc (Helpers.spec_insert s ~parent_id ~pos sub)
           (Tree.insert_subtree doc ~parent_id ~pos (Helpers.builder_of_spec sub))
      && (n = 1
         || agrees_with_reference (Helpers.spec_delete s ~id:victim)
            && same_doc (Helpers.spec_delete s ~id:victim)
                 (Tree.delete_subtree doc ~id:victim)))

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
    (List.init (Tree.size doc) (fun id -> Dewey.to_string (Tree.dewey doc id)));
  Alcotest.(check string) "the child's text" "x" (Tree.text doc 1)

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
    Helpers.qtest prop_columns_agree_with_reference;
  ]
