module Dewey = Xks_xml.Dewey

let d = Dewey.of_list

let test_roundtrip_string () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Dewey.to_string (Dewey.of_string s)))
    [ "0"; "0.0"; "0.2.0.3.0"; "0.10.255" ]

let test_of_string_invalid () =
  List.iter
    (fun s ->
      Alcotest.check_raises s (Invalid_argument "Dewey.of_string") (fun () ->
          ignore (Dewey.of_string s)))
    [ ""; "1"; "0.-1"; "0.a"; "0..1" ]

let test_root () =
  Alcotest.(check int) "depth of root" 0 (Dewey.depth Dewey.root);
  Alcotest.(check string) "root renders as 0" "0" (Dewey.to_string Dewey.root)

let test_child_parent () =
  let c = Dewey.child (d [ 2; 0 ]) 3 in
  Alcotest.(check string) "child" "0.2.0.3" (Dewey.to_string c);
  (match Dewey.parent c with
  | Some p -> Alcotest.(check string) "parent" "0.2.0" (Dewey.to_string p)
  | None -> Alcotest.fail "parent of non-root");
  Alcotest.(check bool) "root has no parent" true (Dewey.parent Dewey.root = None)

let test_preorder_compare () =
  (* Ancestors precede descendants; siblings compare by rank. *)
  Alcotest.(check bool) "ancestor < descendant" true (Dewey.compare (d [ 2 ]) (d [ 2; 0 ]) < 0);
  Alcotest.(check bool) "left < right" true (Dewey.compare (d [ 1; 5 ]) (d [ 2 ]) < 0);
  Alcotest.(check bool) "deep left < shallow right" true
    (Dewey.compare (d [ 1; 5; 9 ]) (d [ 2 ]) < 0);
  Alcotest.(check int) "equal" 0 (Dewey.compare (d [ 1; 2 ]) (d [ 1; 2 ]))

let test_ancestry () =
  Alcotest.(check bool) "strict ancestor" true (Dewey.is_ancestor (d [ 2 ]) (d [ 2; 0; 3 ]));
  Alcotest.(check bool) "self is not strict" false (Dewey.is_ancestor (d [ 2 ]) (d [ 2 ]));
  Alcotest.(check bool) "self is ancestor-or-self" true
    (Dewey.is_ancestor_or_self (d [ 2 ]) (d [ 2 ]));
  Alcotest.(check bool) "sibling is not ancestor" false
    (Dewey.is_ancestor (d [ 1 ]) (d [ 2; 0 ]));
  Alcotest.(check bool) "root is ancestor of all" true
    (Dewey.is_ancestor Dewey.root (d [ 0 ]))

let test_lca () =
  let check a b expected =
    Alcotest.(check string)
      (Printf.sprintf "lca %s %s" (Dewey.to_string (d a)) (Dewey.to_string (d b)))
      expected
      (Dewey.to_string (Dewey.lca (d a) (d b)))
  in
  check [ 2; 0; 1 ] [ 2; 0; 3; 0 ] "0.2.0";
  check [ 2; 0 ] [ 2; 0; 3 ] "0.2.0";
  check [ 0 ] [ 2 ] "0";
  check [ 1; 1 ] [ 1; 1 ] "0.1.1";
  Alcotest.(check int) "lca depth" 2
    (Dewey.depth (Dewey.lca (d [ 2; 0; 1 ]) (d [ 2; 0; 3 ])))

let test_lca_list () =
  Alcotest.(check string) "lca of three" "0.2"
    (Dewey.to_string (Dewey.lca_list [ d [ 2; 0; 1 ]; d [ 2; 1 ]; d [ 2; 0 ] ]));
  Alcotest.check_raises "empty list" (Invalid_argument "Dewey.lca_list: empty list")
    (fun () -> ignore (Dewey.lca_list []))

let test_prefix_component () =
  let x = d [ 4; 2; 7 ] in
  Alcotest.(check string) "prefix 2" "0.4.2" (Dewey.to_string (Dewey.prefix x 2));
  Alcotest.(check string) "prefix 0 is root" "0" (Dewey.to_string (Dewey.prefix x 0));
  Alcotest.(check int) "component" 7 (Dewey.component x 2)

let gen_dewey =
  QCheck2.Gen.(map Dewey.of_list (list_size (int_range 0 6) (int_range 0 5)))

let prop_compare_total_order =
  QCheck2.Test.make ~name:"compare is antisymmetric and transitive-ish"
    ~count:500
    QCheck2.Gen.(triple gen_dewey gen_dewey gen_dewey)
    (fun (a, b, c) ->
      let ab = Dewey.compare a b and ba = Dewey.compare b a in
      (compare ab 0 = compare 0 ba)
      && ((not (Dewey.compare a b < 0 && Dewey.compare b c < 0))
          || Dewey.compare a c < 0))

let prop_lca_is_common_ancestor =
  QCheck2.Test.make ~name:"lca is an ancestor-or-self of both" ~count:500
    QCheck2.Gen.(pair gen_dewey gen_dewey)
    (fun (a, b) ->
      let l = Dewey.lca a b in
      Dewey.is_ancestor_or_self l a && Dewey.is_ancestor_or_self l b)

let prop_lca_deepest =
  QCheck2.Test.make ~name:"no deeper common ancestor than the lca" ~count:500
    QCheck2.Gen.(pair gen_dewey gen_dewey)
    (fun (a, b) ->
      let l = Dewey.lca a b in
      (* Any strictly deeper prefix of [a] is not an ancestor of [b]. *)
      Dewey.depth l = Dewey.depth a
      ||
      let deeper = Dewey.prefix a (Dewey.depth l + 1) in
      not (Dewey.is_ancestor_or_self deeper b))

let prop_ancestor_iff_prefix_compare =
  QCheck2.Test.make ~name:"ancestor-or-self agrees with lca_depth" ~count:500
    QCheck2.Gen.(pair gen_dewey gen_dewey)
    (fun (a, b) ->
      Dewey.is_ancestor_or_self a b
      = (Dewey.depth (Dewey.lca a b) = Dewey.depth a
        && Dewey.depth a <= Dewey.depth b))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"to_string/of_string round-trip" ~count:500
    gen_dewey (fun d ->
      Dewey.equal d (Dewey.of_string (Dewey.to_string d)))

let prop_lca_laws =
  QCheck2.Test.make ~name:"lca: commutative, associative, idempotent"
    ~count:500
    QCheck2.Gen.(triple gen_dewey gen_dewey gen_dewey)
    (fun (a, b, c) ->
      Dewey.equal (Dewey.lca a b) (Dewey.lca b a)
      && Dewey.equal (Dewey.lca a (Dewey.lca b c)) (Dewey.lca (Dewey.lca a b) c)
      && Dewey.equal (Dewey.lca a a) a)

let tests =
  [
    Alcotest.test_case "string round-trip" `Quick test_roundtrip_string;
    Alcotest.test_case "of_string rejects malformed input" `Quick test_of_string_invalid;
    Alcotest.test_case "root" `Quick test_root;
    Alcotest.test_case "child and parent" `Quick test_child_parent;
    Alcotest.test_case "preorder comparison" `Quick test_preorder_compare;
    Alcotest.test_case "ancestry tests" `Quick test_ancestry;
    Alcotest.test_case "lca" `Quick test_lca;
    Alcotest.test_case "lca of a list" `Quick test_lca_list;
    Alcotest.test_case "prefix and component" `Quick test_prefix_component;
    Helpers.qtest prop_compare_total_order;
    Helpers.qtest prop_lca_is_common_ancestor;
    Helpers.qtest prop_lca_deepest;
    Helpers.qtest prop_ancestor_iff_prefix_compare;
    Helpers.qtest prop_string_roundtrip;
    Helpers.qtest prop_lca_laws;
  ]
