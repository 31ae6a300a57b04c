(* Fragment values: construction, membership, diffs, rendering. *)

module Fragment = Xks_core.Fragment
module Tree = Xks_xml.Tree

let doc () =
  Xks_xml.Parser.parse_string "<r><a><x>one</x><y>two</y></a><b>three</b></r>"

let test_make_normalises () =
  let f = Fragment.make ~root:0 ~members:[ 3; 1; 3; 2 ] in
  Alcotest.(check (list int)) "sorted, deduplicated, root added"
    [ 0; 1; 2; 3 ]
    (Fragment.members_list f);
  Alcotest.(check int) "size" 4 (Fragment.size f);
  let ids = Xks_util.Int_vec.create () in
  List.iter (Xks_util.Int_vec.push ids) [ 1; 2; 4; 2 ];
  Alcotest.(check (list int)) "of_ids sorts the buffer" [ 1; 2; 4 ]
    (Fragment.members_list (Fragment.of_ids ~root:1 ids));
  Alcotest.check_raises "of_ids without its root"
    (Invalid_argument "Fragment.of_ids: the root is not among the ids")
    (fun () -> ignore (Fragment.of_ids ~root:3 ids))

let test_membership_and_equality () =
  let f = Fragment.make ~root:1 ~members:[ 2; 3 ] in
  Alcotest.(check bool) "mem" true (Fragment.mem f 2);
  Alcotest.(check bool) "not mem" false (Fragment.mem f 4);
  let g = Fragment.make ~root:1 ~members:[ 3; 2 ] in
  Alcotest.(check bool) "order-insensitive equality" true (Fragment.equal f g);
  let h = Fragment.make ~root:1 ~members:[ 2 ] in
  Alcotest.(check bool) "different sets differ" false (Fragment.equal f h)

let test_diff_count () =
  let f = Fragment.make ~root:0 ~members:[ 1; 2; 3 ] in
  let g = Fragment.make ~root:0 ~members:[ 2 ] in
  Alcotest.(check int) "f - g" 2 (Fragment.diff_count f g);
  Alcotest.(check int) "g - f" 0 (Fragment.diff_count g f)

let test_render_structure () =
  let d = doc () in
  let f = Fragment.make ~root:1 ~members:[ 2; 3 ] in
  Alcotest.(check string) "indented tree view"
    "0.0 (a)\n  0.0.0 (x) 'one'\n  0.0.1 (y) 'two'\n"
    (Fragment.render d f)

let test_render_skips_non_members () =
  let d = doc () in
  let f = Fragment.make ~root:1 ~members:[ 3 ] in
  Alcotest.(check string) "only the member child"
    "0.0 (a)\n  0.0.1 (y) 'two'\n"
    (Fragment.render d f)

let test_to_xml () =
  let d = doc () in
  let f = Fragment.make ~root:1 ~members:[ 2 ] in
  Alcotest.(check string) "xml view" "<a>\n  <x>one</x>\n</a>\n"
    (Fragment.to_xml d f)

let tests =
  [
    Alcotest.test_case "make normalises" `Quick test_make_normalises;
    Alcotest.test_case "membership and equality" `Quick test_membership_and_equality;
    Alcotest.test_case "diff count" `Quick test_diff_count;
    Alcotest.test_case "render" `Quick test_render_structure;
    Alcotest.test_case "render skips non-members" `Quick test_render_skips_non_members;
    Alcotest.test_case "to_xml" `Quick test_to_xml;
  ]
