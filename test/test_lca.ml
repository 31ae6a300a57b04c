(* LCA substrate: unit tests on hand-built trees plus property tests
   cross-validating the four implementations (brute-force definition,
   bottom-up tree scan, Indexed Lookup Eager, Indexed Stack) on random
   documents. *)

module Tree = Xks_xml.Tree
module Tree_scan = Xks_lca.Tree_scan
module Naive = Xks_lca.Naive
module Slca = Xks_lca.Slca
module Indexed_stack = Xks_lca.Indexed_stack
module Probe = Xks_lca.Probe

let doc_and_postings xml query =
  let doc = Xks_xml.Parser.parse_string xml in
  (doc, Helpers.postings_for doc query)

(* XRank-style example: nested full containers exercise the exclusion. *)
let nested_xml =
  "<r><m><c>w1 w2</c><t>w2</t></m><d>w1</d></r>"

let test_nested_elca () =
  (* Full containers are r, m and c, but only c is an ELCA: m's w1 is
     inside c, and r's only w2 witnesses (t, c) are inside m. *)
  let doc, ps = doc_and_postings nested_xml [ "w1"; "w2" ] in
  Helpers.check_ids doc "tree scan" [ "0.0.0" ] (Tree_scan.elca doc ps);
  Helpers.check_ids doc "naive" [ "0.0.0" ] (Naive.elca doc ps);
  Helpers.check_ids doc "indexed stack" [ "0.0.0" ] (Indexed_stack.elca doc ps);
  Helpers.check_ids doc "full containers" [ "0"; "0.0"; "0.0.0" ]
    (Tree_scan.full_containers doc ps);
  Helpers.check_ids doc "slca" [ "0.0.0" ] (Slca.indexed_lookup_eager doc ps);
  Helpers.check_ids doc "scan eager" [ "0.0.0" ] (Xks_lca.Scan_eager.slca doc ps);
  Helpers.check_ids doc "stack slca" [ "0.0.0" ] (Xks_lca.Stack_algos.slca doc ps);
  Helpers.check_ids doc "stack elca" [ "0.0.0" ] (Xks_lca.Stack_algos.elca doc ps)

let test_root_elca () =
  (* Root regains ELCA status when it has its own free witnesses. *)
  let doc, ps =
    doc_and_postings "<r><m><c>w1 w2</c><t>w2</t></m><d>w1</d><e>w2</e></r>"
      [ "w1"; "w2" ]
  in
  Helpers.check_ids doc "elca" [ "0"; "0.0.0" ] (Tree_scan.elca doc ps);
  Helpers.check_ids doc "indexed stack" [ "0"; "0.0.0" ] (Indexed_stack.elca doc ps)

let test_single_keyword () =
  (* For k = 1 every occurrence is an ELCA; the SLCAs are the minimal
     occurrences. *)
  let doc, ps =
    doc_and_postings "<r>w1<a>w1<b>w1</b></a><c>x</c></r>" [ "w1" ]
  in
  Helpers.check_ids doc "elcas" [ "0"; "0.0"; "0.0.0" ] (Indexed_stack.elca doc ps);
  Helpers.check_ids doc "slca" [ "0.0.0" ] (Slca.indexed_lookup_eager doc ps);
  Helpers.check_ids doc "scan eager" [ "0.0.0" ] (Xks_lca.Scan_eager.slca doc ps);
  Helpers.check_ids doc "stack slca" [ "0.0.0" ] (Xks_lca.Stack_algos.slca doc ps);
  Helpers.check_ids doc "stack elca" [ "0"; "0.0"; "0.0.0" ]
    (Xks_lca.Stack_algos.elca doc ps)

let test_no_match () =
  let doc, ps = doc_and_postings "<r><a>w1</a></r>" [ "w1"; "w9" ] in
  Alcotest.(check (list int)) "no elca" [] (Indexed_stack.elca doc ps);
  Alcotest.(check (list int)) "no slca" [] (Slca.indexed_lookup_eager doc ps);
  Alcotest.(check (list int)) "no tree-scan elca" [] (Tree_scan.elca doc ps)

let test_keyword_on_inner_node () =
  (* Labels are content too: an inner node can be a keyword node. *)
  let doc, ps = doc_and_postings "<w1><a>w2</a></w1>" [ "w1"; "w2" ] in
  Helpers.check_ids doc "root is the elca" [ "0" ] (Indexed_stack.elca doc ps)

let test_probe_fc () =
  let doc, ps = doc_and_postings nested_xml [ "w1"; "w2" ] in
  let fc_of dewey =
    match Probe.fc doc ps (Probe.cursors ps) (Helpers.id_at doc dewey) with
    | -1 -> "none"
    | n -> Helpers.dewey_str doc n
  in
  Alcotest.(check string) "fc of c is c" "0.0.0" (fc_of "0.0.0");
  Alcotest.(check string) "fc of t is m" "0.0" (fc_of "0.0.1");
  Alcotest.(check string) "fc of d is root" "0" (fc_of "0.1")

(* Postings w1 = [a; e; g], w2 = [c; f; g] around the probed nodes:
   r(0) a(1) b(2) c(3) d(4) e(5) f(6) g(7) h(8). *)
let fc_xml =
  "<r><a>w1</a><b><c>w2</c><d>z</d><e>w1</e></b><f>w2</f><g>w1 w2</g><h>z</h></r>"

let test_fc_edges () =
  let doc, ps = doc_and_postings fc_xml [ "w1"; "w2" ] in
  let fc_of ps dewey =
    match Probe.fc doc ps (Probe.cursors ps) (Helpers.id_at doc dewey) with
    | -1 -> "none"
    | n -> Helpers.dewey_str doc n
  in
  let check msg expected dewey =
    Alcotest.(check string) msg expected (fc_of ps dewey)
  in
  check "x in a list: e (w1) finds w2's c inside b" "0.1" "0.1.2";
  check "x before w2's first occurrence" "0" "0.0";
  check "x is the root" "0" "0";
  check "x after every occurrence" "0" "0.4";
  check "x between w1's a and e" "0.1" "0.1.1";
  check "x holds every keyword" "0.3" "0.3";
  check "x in w2, between w1's e and g" "0" "0.2";
  let _, with_empty = doc_and_postings fc_xml [ "w1"; "w9" ] in
  Alcotest.(check string) "an empty list gives None" "none"
    (fc_of with_empty "0.3");
  Alcotest.(check string) "no lists: x is its own full container" "0.1.1"
    (fc_of [||] "0.1.1")

(* The kernel's allocation contract: [fc] allocates nothing, whether
   its cursors move forward, back or stay.  Native only: bytecode boxes
   what native code keeps in registers. *)
let test_fc_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
      let doc, ps = doc_and_postings fc_xml [ "w1"; "w2"; "z" ] in
      let n = Tree.size doc and reps = 1000 in
      let cursors = Probe.cursors ps in
      let before = Gc.minor_words () in
      for _ = 1 to reps do
        for id = 0 to n - 1 do
          ignore (Sys.opaque_identity (Probe.fc doc ps cursors id))
        done
      done;
      let per_call = (Gc.minor_words () -. before) /. float_of_int (reps * n) in
      if per_call > 0.01 then
        Alcotest.failf "Probe.fc allocates %.2f minor words per call (> 0)"
          per_call

(* The scan's allocation contract: its state lives in scratch buffers,
   so a driver occurrence allocates nothing and only the per-scan set-up
   remains, shared by every occurrence.  Measured on xmark1's df-head
   pairs, where the scan opens and pops thousands of candidates. *)
let test_scan_allocation () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
      let idx =
        Xks_index.Inverted.build
          (Xks_datagen.Xmark_gen.generate
             ~config:{ Xks_datagen.Xmark_gen.default_config with items = 200 }
             Xks_datagen.Xmark_gen.Data1)
      in
      let queries =
        List.map
          (fun pair ->
            Xks_core.Query.make ~order:`Rarest idx (String.split_on_char ' ' pair))
          [ "auction bidder"; "item increase"; "reserve price"; "ship description";
            "will antique"; "description price"; "cash listing"; "bidder item";
            "order price" ]
      in
      let scan (q : Xks_core.Query.t) =
        Indexed_stack.scan ~emit:(fun _ _ _ -> ()) ~stop:(fun () -> false) q.doc
          q.postings
      in
      (* The first scans size the scratch buffers. *)
      List.iter (fun q -> ignore (scan q : int)) queries;
      let before = Gc.minor_words () in
      let occurrences = List.fold_left (fun n q -> n + scan q) 0 queries in
      let per = (Gc.minor_words () -. before) /. float_of_int occurrences in
      if per >= 1.0 then
        Alcotest.failf
          "Indexed_stack.scan allocates %.2f minor words per driver occurrence \
           (bound 1)"
          per

let test_probe_ancestor_at () =
  let doc, _ = doc_and_postings nested_xml [ "w1" ] in
  let n = Helpers.id_at doc "0.0.1" in
  Alcotest.(check string) "depth 1" "0.0"
    (Helpers.dewey_str doc (Probe.ancestor_at doc n 1));
  Alcotest.(check string) "depth 0" "0"
    (Helpers.dewey_str doc (Probe.ancestor_at doc n 0))

let test_smallest_list () =
  Alcotest.(check int) "picks the shortest" 1
    (Probe.smallest_list_index [| [| 1; 2; 3 |]; [| 4 |]; [| 5; 6 |] |])

(* --- Cross-validation properties. --- *)

let gen_case = QCheck2.Gen.pair Helpers.gen_doc Helpers.gen_query

let print_case (doc, q) =
  Printf.sprintf "query=%s doc=%s" (String.concat "," q) (Helpers.print_doc doc)

let prop pairs name f =
  QCheck2.Test.make ~name ~count:pairs ~print:print_case gen_case f

let prop_elca_implementations_agree =
  prop 400 "indexed stack = tree scan = brute force (ELCA)" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let a = Indexed_stack.elca doc ps in
      let b = Tree_scan.elca doc ps in
      let c = Naive.elca doc ps in
      a = b && b = c)

let prop_slca_implementations_agree =
  prop 400 "indexed lookup eager = tree scan = brute force (SLCA)"
    (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let a = Slca.indexed_lookup_eager doc ps in
      let b = Tree_scan.slca doc ps in
      let c = Naive.slca doc ps in
      a = b && b = c)

let prop_slca_variants_agree =
  prop 400 "scan eager = stack = multiway = indexed lookup eager (SLCA)"
    (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let a = Slca.indexed_lookup_eager doc ps in
      let b = Xks_lca.Scan_eager.slca doc ps in
      let c = Xks_lca.Stack_algos.slca doc ps in
      let d = Xks_lca.Multiway.slca doc ps in
      a = b && b = c && c = d)

let prop_elca_stack_agrees =
  prop 400 "stack ELCA = indexed stack ELCA" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      Xks_lca.Stack_algos.elca doc ps = Indexed_stack.elca doc ps)

(* [Indexed_stack.scan]'s sink contract, on which Topk's tf counts and
   knodes rest: every ELCA is emitted once, with [passed] the ranges of
   the maximal ELCAs strictly inside it (empty exactly for SLCAs). *)
let passed_ranges doc passed first =
  let ends = Tree.subtree_ends doc in
  List.init (Xks_util.Int_vec.length passed - first) (fun i ->
      let v = Xks_util.Int_vec.get passed (first + i) in
      (v, ends.(v)))

let record_scan ~stop doc ps =
  let emitted = ref [] in
  let emit u passed first =
    emitted := (u, passed_ranges doc passed first) :: !emitted
  in
  let scanned = Indexed_stack.scan ~emit ~stop doc ps in
  (List.rev !emitted, scanned)

let prop_scan_emits_elcas =
  prop 400 "scan emits each ELCA once, with its maximal inner ELCAs"
    (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let elcas = Indexed_stack.elca doc ps in
      let slcas = Slca.indexed_lookup_eager doc ps in
      let ends = Tree.subtree_ends doc in
      let inside u v = u < v && v <= ends.(u) in
      let maximal_inner u =
        List.filter
          (fun v ->
            inside u v
            && not (List.exists (fun w -> inside u w && inside w v) elcas))
          elcas
        |> List.map (fun v -> (v, ends.(v)))
      in
      let emitted, _ = record_scan ~stop:(fun () -> false) doc ps in
      List.sort Int.compare (List.map fst emitted) = elcas
      && List.for_all
           (fun (u, passed) ->
             List.sort compare passed = maximal_inner u
             && (passed = []) = List.mem u slcas)
           emitted)

let prop_scan_stop =
  QCheck2.Test.make
    ~name:"scan stopped on the n-th ask emits a prefix, then nothing"
    ~count:300
    ~print:(fun (doc, q, n) ->
      Printf.sprintf "n=%d query=%s doc=%s" n (String.concat "," q)
        (Helpers.print_doc doc))
    QCheck2.Gen.(triple Helpers.gen_doc Helpers.gen_query (int_range 1 12))
    (fun (doc, q, n) ->
      let ps = Helpers.postings_for doc q in
      let full, _ = record_scan ~stop:(fun () -> false) doc ps in
      let asked = ref 0 and late_calls = ref 0 in
      let stop () =
        if !asked >= n then incr late_calls;
        incr asked;
        !asked = n
      in
      let emitted = ref [] in
      let emit u passed first =
        if !asked >= n then incr late_calls;
        emitted := (u, passed_ranges doc passed first) :: !emitted
      in
      let scanned = Indexed_stack.scan ~emit ~stop doc ps in
      let rec is_prefix = function
        | [], _ -> true
        | x :: xs, y :: ys -> x = y && is_prefix (xs, ys)
        | _ :: _, [] -> false
      in
      is_prefix (List.rev !emitted, full)
      && !late_calls = 0
      && scanned <= Array.length ps.(Probe.smallest_list_index ps))

let prop_full_containers_agree =
  prop 300 "tree scan = brute force (full containers)" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      Tree_scan.full_containers doc ps = Naive.full_containers doc ps)

let prop_slca_subset_elca =
  prop 300 "SLCA is a subset of ELCA" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let elcas = Indexed_stack.elca doc ps in
      List.for_all (fun s -> List.mem s elcas) (Slca.indexed_lookup_eager doc ps))

let prop_elca_subset_full_containers =
  prop 300 "ELCAs are full containers" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let fcs = Tree_scan.full_containers doc ps in
      List.for_all (fun e -> List.mem e fcs) (Indexed_stack.elca doc ps))

let prop_elca_subset_lca_closure =
  prop 150 "ELCAs are classic LCAs of witness tuples" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      (* Keep the witness enumeration tractable. *)
      if Array.exists (fun s -> Array.length s > 6) ps then true
      else
        let lcas = Naive.lca_of_witnesses doc ps in
        List.for_all (fun e -> List.mem e lcas) (Indexed_stack.elca doc ps))

let prop_fc_is_deepest_full_container =
  prop 300 "fc is the deepest full container of a node" (fun (doc, q) ->
      let ps = Helpers.postings_for doc q in
      let fcs = Naive.full_containers doc ps in
      (* One cursor array carried along the preorder fold (the scans'
         use), fresh cursors per call and cursors scattered at random
         before every call (right, one entry short, further behind or
         ahead) must all find it. *)
      let carried = Probe.cursors ps and scattered = Probe.cursors ps in
      let rng = Random.State.make [| Tree.size doc; Hashtbl.hash q |] in
      List.for_all
        (fun n ->
          let expected =
            (* deepest full-container ancestor-or-self by brute force *)
            List.filter
              (fun f ->
                Xks_xml.Dewey.is_ancestor_or_self (Tree.dewey doc f)
                  (Tree.dewey doc n))
              fcs
            |> List.fold_left (fun _ f -> Some f) None
          in
          let fresh = Probe.fc doc ps (Probe.cursors ps) n in
          Array.iteri
            (fun i p -> scattered.(i) <- Random.State.int rng (Array.length p + 1))
            ps;
          fresh = Probe.fc doc ps carried n
          && fresh = Probe.fc doc ps scattered n
          &&
          match (fresh, expected) with
          | -1, None -> true
          | f, Some e -> f = e
          | _, None -> false)
        (List.init (Tree.size doc) Fun.id))

let prop_wide_documents =
  QCheck2.Test.make ~name:"wide documents: scans agree with the references"
    ~count:100
    ~print:(fun (doc, q, k) ->
      Printf.sprintf "k=%d query=%s doc=%s" k (String.concat "," q)
        (Helpers.print_doc doc))
    QCheck2.Gen.(triple Helpers.gen_wide_doc Helpers.gen_query (int_range 1 5))
    (fun (doc, q, k) ->
      let ps = Helpers.postings_for doc q in
      let engine = Xks_core.Engine.of_doc doc in
      let full = Xks_core.Engine.search ~rank:`Bm25 engine q in
      Indexed_stack.elca doc ps = Naive.elca doc ps
      && Slca.indexed_lookup_eager doc ps = Naive.slca doc ps
      && Xks_core.Engine.search ~rank:`Bm25 ~k engine q
         = List.filteri (fun i _ -> i < k) full)

(* Deep, chain-shaped documents: a root-to-leaf spine of 20-150 nodes,
   each holding up to two leaves before or after the next spine node.
   Full containers nest deeply, and the one-pass SLCA filter sees its
   candidates arrive as ancestors, descendants and successors of the
   last one kept. *)
let gen_chain_doc =
  QCheck2.Gen.(
    map
      (fun spine ->
        Tree.build
          (List.fold_left
             (fun child (l, t, (leaves, before)) ->
               Tree.elem ~text:t l
                 (if before then leaves @ [ child ] else child :: leaves))
             (Tree.elem ~text:"w0 w1" "d" [])
             spine))
      (list_size (int_range 20 150)
         (triple (oneofa Helpers.labels) Helpers.gen_text
            (pair (list_size (int_range 0 2) Helpers.gen_leaf) bool))))

let prop_chain_documents =
  QCheck2.Test.make ~name:"chain documents: scans agree with the references"
    ~count:100
    ~print:(fun (doc, q, k) ->
      Printf.sprintf "k=%d query=%s doc=%s" k (String.concat "," q)
        (Helpers.print_doc doc))
    QCheck2.Gen.(triple gen_chain_doc Helpers.gen_query (int_range 1 5))
    (fun (doc, q, k) ->
      let ps = Helpers.postings_for doc q in
      let engine = Xks_core.Engine.of_doc doc in
      let full = Xks_core.Engine.search ~rank:`Bm25 engine q in
      Indexed_stack.elca doc ps = Naive.elca doc ps
      && Slca.indexed_lookup_eager doc ps = Naive.slca doc ps
      && Xks_core.Engine.search ~rank:`Bm25 ~k engine q
         = List.filteri (fun i _ -> i < k) full)

let tests =
  [
    Alcotest.test_case "nested full containers" `Quick test_nested_elca;
    Alcotest.test_case "root with free witnesses" `Quick test_root_elca;
    Alcotest.test_case "single keyword" `Quick test_single_keyword;
    Alcotest.test_case "keyword with no occurrence" `Quick test_no_match;
    Alcotest.test_case "inner keyword node" `Quick test_keyword_on_inner_node;
    Alcotest.test_case "fc probe" `Quick test_probe_fc;
    Alcotest.test_case "fc edge cases" `Quick test_fc_edges;
    Alcotest.test_case "fc allocates only its result" `Quick test_fc_allocation;
    Alcotest.test_case "scan allocates under a word per driver occurrence" `Quick
      test_scan_allocation;
    Alcotest.test_case "ancestor_at" `Quick test_probe_ancestor_at;
    Alcotest.test_case "smallest list index" `Quick test_smallest_list;
    Helpers.qtest prop_elca_implementations_agree;
    Helpers.qtest prop_slca_implementations_agree;
    Helpers.qtest prop_slca_variants_agree;
    Helpers.qtest prop_elca_stack_agrees;
    Helpers.qtest prop_scan_emits_elcas;
    Helpers.qtest prop_scan_stop;
    Helpers.qtest prop_full_containers_agree;
    Helpers.qtest prop_slca_subset_elca;
    Helpers.qtest prop_elca_subset_full_containers;
    Helpers.qtest prop_elca_subset_lca_closure;
    Helpers.qtest prop_fc_is_deepest_full_container;
    Helpers.qtest prop_wide_documents;
    Helpers.qtest prop_chain_documents;
  ]
