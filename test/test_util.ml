(* The util substrate: growable int vectors, per-domain scratch
   buffers, and binary searches. *)

module Int_vec = Xks_util.Int_vec
module Bsearch = Xks_util.Bsearch
module Scratch = Xks_util.Scratch

let test_int_vec_basics () =
  let v = Int_vec.create () in
  Alcotest.(check int) "empty" 0 (Int_vec.length v);
  for i = 0 to 99 do
    Int_vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 100 (Int_vec.length v);
  Alcotest.(check int) "get" 40 (Int_vec.get v 20);
  Alcotest.(check int) "last" 198 (Int_vec.last v);
  Int_vec.set v 0 7;
  Alcotest.(check int) "set" 7 (Int_vec.get v 0);
  Alcotest.(check int) "pop" 198 (Int_vec.pop v);
  Alcotest.(check int) "pop shrinks" 99 (Int_vec.length v);
  Int_vec.truncate v 10;
  Alcotest.(check int) "truncate" 10 (Int_vec.length v);
  Alcotest.(check int) "truncate keeps the prefix" 18 (Int_vec.last v);
  Int_vec.clear v;
  Alcotest.(check int) "clear" 0 (Int_vec.length v)

let test_int_vec_bounds () =
  let v = Int_vec.create () in
  Alcotest.check_raises "get" (Invalid_argument "Int_vec: index") (fun () ->
      ignore (Int_vec.get v 0));
  Alcotest.check_raises "last" (Invalid_argument "Int_vec.last: empty")
    (fun () -> ignore (Int_vec.last v));
  Alcotest.check_raises "pop" (Invalid_argument "Int_vec.pop: empty")
    (fun () -> ignore (Int_vec.pop v));
  Alcotest.check_raises "truncate" (Invalid_argument "Int_vec.truncate")
    (fun () -> Int_vec.truncate v 1)

let test_int_vec_to_array_iter () =
  let v = Int_vec.create ~capacity:1 () in
  List.iter (Int_vec.push v) [ 3; 1; 4; 1; 5 ];
  Alcotest.(check (list int)) "to_array" [ 3; 1; 4; 1; 5 ]
    (Array.to_list (Int_vec.to_array v));
  let acc = ref [] in
  for i = 0 to Int_vec.length v - 1 do
    acc := Int_vec.get v i :: !acc
  done;
  Alcotest.(check (list int)) "get order" [ 5; 1; 4; 1; 3 ] !acc

let test_int_vec_sort_uniq () =
  let v = Int_vec.create () in
  Int_vec.sort_uniq v;
  Alcotest.(check int) "empty stays empty" 0 (Int_vec.length v);
  List.iter (Int_vec.push v) [ 5; 3; 5; 1; 3; 5; 1; 1; 5 ];
  Int_vec.sort_uniq v;
  Alcotest.(check (list int)) "duplicate-heavy input" [ 1; 3; 5 ]
    (Array.to_list (Int_vec.to_array v));
  Int_vec.clear v;
  List.iter (Int_vec.push v) [ 7; 7; 7; 7 ];
  Int_vec.sort_uniq v;
  Alcotest.(check (list int)) "all-equal input" [ 7 ]
    (Array.to_list (Int_vec.to_array v));
  Int_vec.clear v;
  List.iter (Int_vec.push v) [ 1; 2; 2; 4; 9; 9 ];
  Int_vec.sort_uniq v;
  Alcotest.(check (list int)) "ascending input" [ 1; 2; 4; 9 ]
    (Array.to_list (Int_vec.to_array v))

let prop_sort_uniq_matches_spec =
  QCheck2.Test.make ~name:"Int_vec.sort_uniq = List.sort_uniq" ~count:500
    QCheck2.Gen.(list_size (int_range 0 40) (int_range 0 10))
    ~print:(fun l -> String.concat ";" (List.map string_of_int l))
    (fun l ->
      let v = Int_vec.create () in
      List.iter (Int_vec.push v) l;
      Int_vec.sort_uniq v;
      Array.to_list (Int_vec.to_array v) = List.sort_uniq Int.compare l)

(* The tests below compare buffer identities across checkouts, so they
   deliberately let buffers escape [with_ints] — fine here because only
   physical equality is read, never the contents. *)

let test_scratch_reuse () =
  let first = Scratch.with_ints (fun v -> Int_vec.push v 1; v) in
  Scratch.with_ints (fun v ->
      Alcotest.(check bool) "same buffer checked out again" true (v == first);
      Alcotest.(check int) "cleared on checkout" 0 (Int_vec.length v))

let test_scratch_nesting_and_exceptions () =
  (match
     Scratch.with_ints (fun outer ->
         Scratch.with_ints (fun inner ->
             Alcotest.(check bool) "nested checkout is distinct" true
               (not (outer == inner)));
         raise Exit)
   with
  | exception Exit -> ()
  | () -> Alcotest.fail "Exit swallowed");
  (* both buffers went back to the free list despite the raise *)
  let pair =
    Scratch.with_ints (fun a -> Scratch.with_ints (fun b -> (a, b)))
  in
  Scratch.with_ints (fun a ->
      Scratch.with_ints (fun b ->
          Alcotest.(check bool) "free list survives the raise" true
            (let p, q = pair in a == p && b == q)))

let test_scratch_domain_isolation () =
  let parent = Scratch.with_ints (fun v -> v) in
  let results =
    List.map Domain.join
      (List.init 4 (fun _ ->
           Domain.spawn (fun () ->
               let mine = Scratch.with_ints (fun v -> v) in
               let again = Scratch.with_ints (fun v -> v) in
               (mine, mine == again))))
  in
  List.iter
    (fun (mine, reused) ->
      Alcotest.(check bool) "reused within its own domain" true reused;
      Alcotest.(check bool) "never the parent's buffer" true
        (not (mine == parent)))
    results;
  let rec pairwise = function
    | [] -> ()
    | (a, _) :: rest ->
        List.iter
          (fun (b, _) ->
            Alcotest.(check bool) "distinct across domains" true (not (a == b)))
          rest;
        pairwise rest
  in
  pairwise results

let test_bsearch_bounds () =
  let a = [| 1; 3; 3; 5; 9 |] in
  Alcotest.(check int) "lower_bound present" 1 (Bsearch.lower_bound a 3);
  Alcotest.(check int) "upper_bound present" 3 (Bsearch.upper_bound a 3);
  Alcotest.(check int) "lower_bound absent" 3 (Bsearch.lower_bound a 4);
  Alcotest.(check int) "lower_bound beyond" 5 (Bsearch.lower_bound a 10);
  Alcotest.(check int) "lower_bound before" 0 (Bsearch.lower_bound a 0)

(* The probes the LCA kernels make by index: the last element [<= x]
   (left neighbour, from [upper_bound]) and the first element of a
   range (from [lower_bound]). *)
let left_match a x =
  let i = Bsearch.upper_bound a x in
  if i = 0 then None else Some a.(i - 1)

let first_in_range a ~lo ~hi =
  let i = Bsearch.lower_bound a lo in
  if i < Array.length a && a.(i) <= hi then Some a.(i) else None

let test_bsearch_matches () =
  let a = [| 2; 4; 6 |] in
  Alcotest.(check (option int)) "left exact" (Some 4) (left_match a 4);
  Alcotest.(check (option int)) "left between" (Some 4) (left_match a 5);
  Alcotest.(check (option int)) "left before" None (left_match a 1);
  Alcotest.(check (option int)) "right exact" (Some 4) (Bsearch.right_match a 4);
  Alcotest.(check (option int)) "right between" (Some 6) (Bsearch.right_match a 5);
  Alcotest.(check (option int)) "right after" None (Bsearch.right_match a 7);
  Alcotest.(check bool) "mem" true (Bsearch.mem a 4);
  Alcotest.(check bool) "not mem" false (Bsearch.mem a 5)

let test_bsearch_ranges () =
  let a = [| 2; 4; 6; 8 |] in
  Alcotest.(check (option int)) "first in range" (Some 4)
    (first_in_range a ~lo:3 ~hi:7);
  Alcotest.(check (option int)) "no first" None
    (first_in_range a ~lo:9 ~hi:20)

let gen_sorted =
  QCheck2.Gen.(
    map
      (fun l -> Array.of_list (List.sort compare l))
      (list_size (int_range 0 30) (int_range 0 50)))

let prop_bounds_consistent =
  QCheck2.Test.make ~name:"lower/upper bounds bracket the value" ~count:500
    QCheck2.Gen.(pair gen_sorted (int_range 0 50))
    (fun (a, x) ->
      let lo = Xks_util.Bsearch.lower_bound a x in
      let hi = Xks_util.Bsearch.upper_bound a x in
      lo <= hi
      && (lo = 0 || a.(lo - 1) < x)
      && (lo = Array.length a || a.(lo) >= x)
      && (hi = Array.length a || a.(hi) > x)
      && Xks_util.Bsearch.mem a x = (hi > lo))

let prop_matches_agree_with_spec =
  QCheck2.Test.make ~name:"left/right match = linear scan" ~count:500
    QCheck2.Gen.(pair gen_sorted (int_range 0 50))
    (fun (a, x) ->
      let l = Array.to_list a in
      left_match a x
      = List.fold_left (fun acc y -> if y <= x then Some y else acc) None l
      && Xks_util.Bsearch.right_match a x
         = List.fold_left
             (fun acc y ->
               match acc with Some _ -> acc | None -> if y >= x then Some y else None)
             None l)

let prop_upper_bound_back =
  QCheck2.Test.make ~name:"upper_bound_back = upper_bound capped at hi"
    ~count:500
    QCheck2.Gen.(
      bind gen_sorted (fun a ->
          triple (return a) (int_range 0 (Array.length a)) (int_range 0 50)))
    (fun (a, hi, x) ->
      Xks_util.Bsearch.upper_bound_back a ~hi x
      = min hi (Xks_util.Bsearch.upper_bound a x))

(* The galloping search the LCA scans carry their cursors with: from
   any start, before or after the answer, it finds [upper_bound]. *)
let prop_upper_bound_from =
  QCheck2.Test.make ~name:"upper_bound_from = upper_bound from every start"
    ~count:500
    QCheck2.Gen.(pair gen_sorted (int_range (-1) 51))
    ~print:(fun (a, x) ->
      Printf.sprintf "x=%d a=[%s]" x
        (String.concat ";" (Array.to_list (Array.map string_of_int a))))
    (fun (a, x) ->
      let expected = Bsearch.upper_bound a x in
      List.for_all
        (fun lo -> Bsearch.upper_bound_from a ~lo x = expected)
        (List.init (Array.length a + 1) Fun.id))

let tests =
  [
    Alcotest.test_case "int_vec basics" `Quick test_int_vec_basics;
    Alcotest.test_case "int_vec bounds" `Quick test_int_vec_bounds;
    Alcotest.test_case "int_vec to_array/iter" `Quick test_int_vec_to_array_iter;
    Alcotest.test_case "int_vec sort_uniq edge cases" `Quick
      test_int_vec_sort_uniq;
    Helpers.qtest prop_sort_uniq_matches_spec;
    Alcotest.test_case "scratch buffer reuse" `Quick test_scratch_reuse;
    Alcotest.test_case "scratch nesting and exception safety" `Quick
      test_scratch_nesting_and_exceptions;
    Alcotest.test_case "scratch domain isolation" `Quick
      test_scratch_domain_isolation;
    Alcotest.test_case "bsearch bounds" `Quick test_bsearch_bounds;
    Alcotest.test_case "bsearch matches" `Quick test_bsearch_matches;
    Alcotest.test_case "bsearch ranges" `Quick test_bsearch_ranges;
    Helpers.qtest prop_bounds_consistent;
    Helpers.qtest prop_matches_agree_with_spec;
    Helpers.qtest prop_upper_bound_back;
    Helpers.qtest prop_upper_bound_from;
  ]
