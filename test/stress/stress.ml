(* Long-running differential stress test, independent of `dune runtest`:
   larger random documents, wider alphabets, every algorithm checked
   against every other.

     dune exec test/stress/stress.exe -- [iterations] [seed]

   Exits non-zero and prints the offending document on the first
   disagreement. *)

module Tree = Xks_xml.Tree
module Rng = Xks_datagen.Rng

let labels = [| "a"; "b"; "c"; "d"; "e"; "f" |]
let words = [| "w0"; "w1"; "w2"; "w3"; "w4"; "w5"; "w6"; "w7" |]

(* A random document of up to [max_nodes] nodes, denser and deeper than
   the unit-test generator. *)
let random_doc rng max_nodes =
  let budget = ref (2 + Rng.int rng (max_nodes - 1)) in
  let rec build depth =
    decr budget;
    let n_children =
      if depth > 8 || !budget <= 0 then 0
      else Rng.int rng (min 5 (max 1 !budget))
    in
    let children = List.init n_children (fun _ -> build (depth + 1)) in
    let text =
      match Rng.int rng 4 with
      | 0 -> ""
      | 1 -> Rng.pick rng words
      | 2 -> Rng.pick rng words ^ " " ^ Rng.pick rng words
      | _ ->
          String.concat " "
            (List.init (1 + Rng.int rng 3) (fun _ -> Rng.pick rng words))
    in
    Tree.elem ~text (Rng.pick rng labels) children
  in
  Tree.build (build 0)

let random_query rng =
  let arity = 1 + Rng.int rng 4 in
  List.sort_uniq compare (List.init arity (fun _ -> Rng.pick rng words))

let check name ok doc query =
  if not ok then begin
    Printf.eprintf "STRESS FAILURE: %s\nquery: %s\ndocument:\n%s\n" name
      (String.concat " " query)
      (Xks_xml.Writer.to_string doc);
    exit 1
  end

let run_case rng max_nodes =
  let doc = random_doc rng max_nodes in
  let query = random_query rng in
  let idx = Xks_index.Inverted.build doc in
  let q = Xks_core.Query.make idx query in
  let ps = q.Xks_core.Query.postings in
  (* LCA layer: all implementations agree. *)
  let slca_ile = Xks_lca.Slca.indexed_lookup_eager doc ps in
  check "scan eager = ILE" (Xks_lca.Scan_eager.slca doc ps = slca_ile) doc query;
  check "stack slca = ILE" (Xks_lca.Stack_algos.slca doc ps = slca_ile) doc query;
  check "multiway = ILE" (Xks_lca.Multiway.slca doc ps = slca_ile) doc query;
  check "tree-scan slca = ILE" (Xks_lca.Tree_scan.slca doc ps = slca_ile) doc query;
  let elca_is = Xks_lca.Indexed_stack.elca doc ps in
  check "stack elca = indexed stack" (Xks_lca.Stack_algos.elca doc ps = elca_is)
    doc query;
  check "tree-scan elca = indexed stack" (Xks_lca.Tree_scan.elca doc ps = elca_is)
    doc query;
  (* The shredded value-table lookup agrees with the inverted index. *)
  let values = Xks_index.Shredder.values doc in
  check "sql postings"
    (Array.map
       (fun w ->
         Array.of_list
           (List.map
              (fun (r : Xks_index.Shredder.value_row) -> r.v_id)
              (Xks_index.Shredder.find_values values w)))
       q.Xks_core.Query.keywords
    = ps)
    doc query;
  (* Streaming index agrees with the tree index. *)
  check "stream index"
    (Xks_index.Stream_index.rows_of_string (Xks_xml.Writer.to_string doc)
    = Xks_index.Persist.dump idx)
    doc query;
  (* Pipeline invariants. *)
  let validrtf = Xks_core.Validrtf.run_query q in
  let maxmatch = Xks_core.Maxmatch.run_revised_query q in
  check "same lcas"
    (validrtf.Xks_core.Pipeline.lcas = maxmatch.Xks_core.Pipeline.lcas)
    doc query;
  check "lcas = elcas" (validrtf.Xks_core.Pipeline.lcas = elca_is) doc query;
  List.iter2
    (fun rtf frag ->
      let info = Xks_core.Node_info.construct q rtf in
      let again = Xks_core.Prune.valid_contributor info in
      check "pruning deterministic" (Xks_core.Fragment.equal frag again) doc query;
      let explained =
        List.filter Xks_core.Explain.kept (Xks_core.Explain.valid_contributor info)
        |> List.map (fun (d : Xks_core.Explain.decision) -> d.Xks_core.Explain.node)
      in
      check "explain agrees"
        (explained = Xks_core.Fragment.members_list frag)
        doc query)
    validrtf.Xks_core.Pipeline.rtfs validrtf.Xks_core.Pipeline.fragments;
  (* Metrics stay in range. *)
  let m = Xks_metrics.Metrics.compare_results ~validrtf ~maxmatch in
  check "metric ranges"
    (m.Xks_metrics.Metrics.cfr >= 0.0
    && m.Xks_metrics.Metrics.cfr <= 1.0
    && m.Xks_metrics.Metrics.max_apr < 1.0
    && m.Xks_metrics.Metrics.apr' >= 0.0)
    doc query;
  (* Round-trip the document through the writer and parser. *)
  let s = Xks_xml.Writer.to_string doc in
  check "parse/write round-trip"
    (Xks_xml.Writer.to_string (Xks_xml.Parser.parse_string s) = s)
    doc query

let () =
  let iterations =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2000
  in
  let seed = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 1 in
  let rng = Rng.create seed in
  for i = 1 to iterations do
    let max_nodes = 10 + Rng.int rng 190 in
    run_case rng max_nodes;
    if i mod 500 = 0 then Printf.printf "%d/%d cases ok\n%!" i iterations
  done;
  Printf.printf "stress: %d cases, no disagreement (seed %d)\n" iterations seed
