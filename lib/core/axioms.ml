module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey

type run = Xks_index.Inverted.t -> string list -> Pipeline.result

type report = {
  ok : bool;
  results_before : int;
  results_after : int;
  offending : string list;
}

let append_subtree doc ~parent_id b =
  let pos = Tree.fold_children (fun n _ -> n + 1) 0 doc parent_id in
  Tree.insert_subtree doc ~parent_id ~pos b

(* A fragment as Dewey codes, stable across re-indexing. *)
module Dset = Set.Make (struct
  type t = Dewey.t

  let compare = Dewey.compare
end)

let fragment_deweys doc frag =
  List.fold_left
    (fun acc id -> Dset.add (Tree.dewey doc id) acc)
    Dset.empty
    (Fragment.members_list frag)

let fragments_of doc result =
  List.map
    (fun f -> (Tree.dewey doc f.Fragment.root, fragment_deweys doc f))
    result.Pipeline.fragments

let run_on run doc query =
  let idx = Xks_index.Inverted.build doc in
  run idx query

let describe (root, members) =
  Printf.sprintf "fragment at %s (%d nodes)" (Dewey.to_string root)
    (Dset.cardinal members)

let data_monotonicity ~run ~before ~after ~query =
  let rb = run_on run before query and ra = run_on run after query in
  let nb = List.length rb.Pipeline.fragments
  and na = List.length ra.Pipeline.fragments in
  {
    ok = na >= nb;
    results_before = nb;
    results_after = na;
    offending =
      (if na >= nb then []
       else [ Printf.sprintf "result count dropped from %d to %d" nb na ]);
  }

let query_monotonicity ~run ~doc ~query ~extra =
  let rb = run_on run doc query and ra = run_on run doc (query @ [ extra ]) in
  let nb = List.length rb.Pipeline.fragments
  and na = List.length ra.Pipeline.fragments in
  {
    ok = na <= nb;
    results_before = nb;
    results_after = na;
    offending =
      (if na <= nb then []
       else [ Printf.sprintf "result count grew from %d to %d" nb na ]);
  }

(* Fragments of [after_frags] that display nodes absent from the entire
   before result set must satisfy [contains] somewhere among their
   members.  This is the set-level reading of Liu & Chen's consistency
   axioms: the "additional subtrees which become (part of) a query
   result" are the newly displayed nodes, and the fragment carrying them
   must contain the new node / a match of the new keyword.

   Two stronger readings fail for ValidRTF's all-LCA semantics and are
   deliberately not used (see test_axioms.ml and EXPERIMENTS.md):
   - per-node: every newly appearing member matches — fails on simple
     single-keyword documents;
   - per-fragment: every changed fragment contains the new node — fails
     because an insertion can demote an interesting LCA node, hoisting
     its old keyword nodes into the enclosing RTF, which then changes
     without containing any inserted node. *)
let consistency_violations before_frags after_frags contains =
  let displayed_before d =
    List.exists (fun (_, m) -> Dset.mem d m) before_frags
  in
  List.filter_map
    (fun ((_, members) as frag) ->
      let additional = Dset.filter (fun d -> not (displayed_before d)) members in
      if Dset.is_empty additional || Dset.exists contains members then None
      else Some (describe frag))
    after_frags

let data_consistency ~run ~before ~after ~query =
  let rb = run_on run before query and ra = run_on run after query in
  let fb = fragments_of before rb and fa = fragments_of after ra in
  (* Inserted nodes: Dewey codes present in [after] but not in [before]. *)
  let inserted d = Tree.find_by_dewey before d = None in
  let offending = consistency_violations fb fa inserted in
  {
    ok = offending = [];
    results_before = List.length rb.Pipeline.fragments;
    results_after = List.length ra.Pipeline.fragments;
    offending;
  }

let query_consistency ~run ~doc ~query ~extra =
  let rb = run_on run doc query and ra = run_on run doc (query @ [ extra ]) in
  let fb = fragments_of doc rb and fa = fragments_of doc ra in
  let extra_norm = Xks_xml.Tokenizer.normalize extra in
  let matches_extra d =
    match Tree.find_by_dewey doc d with
    | Some id -> Tree.node_matches doc id extra_norm
    | None -> false
  in
  let offending = consistency_violations fb fa matches_extra in
  {
    ok = offending = [];
    results_before = List.length rb.Pipeline.fragments;
    results_after = List.length ra.Pipeline.fragments;
    offending;
  }
