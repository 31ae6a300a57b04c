(* Query preparation and validation. *)

module Query = Xks_core.Query
module Klist = Xks_index.Klist

let idx_of xml = Xks_index.Inverted.build (Xks_xml.Parser.parse_string xml)

let test_normalisation_and_dedup () =
  let idx = idx_of "<r><a>xml</a><b>search</b></r>" in
  let q = Query.make idx [ "XML"; "Search"; "xml" ] in
  Alcotest.(check (list string)) "normalised, first-occurrence order"
    [ "xml"; "search" ]
    (Array.to_list q.Query.keywords);
  Alcotest.(check int) "k" 2 (Query.k q)

let test_rarest_first_order () =
  let idx =
    idx_of "<r><a>xml search</a><b>search</b><c>search keyword</c></r>"
  in
  (* posting lengths: search 3, keyword 1, xml 1 *)
  let q = Query.make ~order:`Rarest idx [ "search"; "xml"; "keyword" ] in
  Alcotest.(check (list string)) "shortest posting list first, ties stable"
    [ "xml"; "keyword"; "search" ]
    (Array.to_list q.Query.keywords);
  Alcotest.(check (list int)) "postings permuted with their keywords"
    [ 1; 1; 3 ]
    (Array.to_list (Array.map Array.length q.Query.postings));
  (* The default stays first-occurrence order. *)
  let q' = Query.make idx [ "search"; "xml"; "keyword" ] in
  Alcotest.(check (list string)) "default keeps given order"
    [ "search"; "xml"; "keyword" ]
    (Array.to_list q'.Query.keywords)

let test_validation () =
  let idx = idx_of "<r>x</r>" in
  Alcotest.check_raises "empty" (Invalid_argument "Query.make: empty query")
    (fun () -> ignore (Query.make idx []));
  Alcotest.check_raises "only empties" (Invalid_argument "Query.make: empty query")
    (fun () -> ignore (Query.make idx [ "  "; "" ]))

let test_has_results () =
  let idx = idx_of "<r><a>xml</a></r>" in
  Alcotest.(check bool) "present" true (Query.has_results (Query.make idx [ "xml" ]));
  Alcotest.(check bool) "absent" false
    (Query.has_results (Query.make idx [ "xml"; "zebra" ]))

let test_keyword_index () =
  let idx = idx_of "<r><a>xml search</a></r>" in
  let q = Query.make idx [ "xml"; "search" ] in
  Alcotest.(check (option int)) "first" (Some 0) (Query.keyword_index q "XML");
  Alcotest.(check (option int)) "second" (Some 1) (Query.keyword_index q "search");
  Alcotest.(check (option int)) "absent" None (Query.keyword_index q "nope")

let test_node_klist () =
  let idx = idx_of "<r><a>xml search</a><b>xml</b></r>" in
  let q = Query.make idx [ "xml"; "search" ] in
  let k = Query.k q in
  Alcotest.(check string) "both keywords" "11"
    (Format.asprintf "%a" (Klist.pp ~k) (Query.node_klist q 1));
  Alcotest.(check string) "one keyword" "10"
    (Format.asprintf "%a" (Klist.pp ~k) (Query.node_klist q 2));
  Alcotest.(check string) "no keyword" "00"
    (Format.asprintf "%a" (Klist.pp ~k) (Query.node_klist q 0))

let test_of_postings_validation () =
  let doc = Xks_xml.Parser.parse_string "<r><a>x</a></r>" in
  let features = Xks_index.Inverted.features (Xks_index.Inverted.build doc) in
  let check_raises msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail msg
  in
  check_raises "arity" (fun () ->
      Query.of_postings ~features doc ~keywords:[ "a" ] [||]);
  check_raises "duplicate" (fun () ->
      Query.of_postings ~features doc ~keywords:[ "a"; "a" ] [| [| 0 |]; [| 1 |] |]);
  check_raises "out of range" (fun () ->
      Query.of_postings ~features doc ~keywords:[ "a" ] [| [| 9 |] |]);
  check_raises "unsorted" (fun () ->
      Query.of_postings ~features doc ~keywords:[ "a" ] [| [| 1; 0 |] |]);
  (* And the happy path. *)
  let q = Query.of_postings ~features doc ~keywords:[ "a" ] [| [| 1 |] |] in
  Alcotest.(check bool) "valid" true (Query.has_results q)

let test_pp () =
  let idx = idx_of "<r>x</r>" in
  let q = Query.make idx [ "a"; "b" ] in
  Alcotest.(check string) "rendering" "{a, b}" (Format.asprintf "%a" Query.pp q)

let tests =
  [
    Alcotest.test_case "normalisation and dedup" `Quick test_normalisation_and_dedup;
    Alcotest.test_case "rarest-first ordering" `Quick test_rarest_first_order;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "has_results" `Quick test_has_results;
    Alcotest.test_case "keyword_index" `Quick test_keyword_index;
    Alcotest.test_case "node_klist" `Quick test_node_klist;
    Alcotest.test_case "of_postings validation" `Quick test_of_postings_validation;
    Alcotest.test_case "pp" `Quick test_pp;
  ]
