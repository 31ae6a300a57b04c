module Tree = Xks_xml.Tree
module Inverted = Xks_index.Inverted
module Query = Xks_core.Query
module Rtf = Xks_core.Rtf
module Pipeline = Xks_core.Pipeline
module Node_info = Xks_core.Node_info
module Naive = Xks_lca.Naive

type impl = {
  name : string;
  compute : Tree.t -> int array array -> int list;
}

let elca_impls =
  [
    { name = "Indexed_stack.elca"; compute = Xks_lca.Indexed_stack.elca };
    { name = "Stack_algos.elca"; compute = Xks_lca.Stack_algos.elca };
    { name = "Tree_scan.elca"; compute = Xks_lca.Tree_scan.elca };
  ]

let slca_impls =
  [
    {
      name = "Slca.indexed_lookup_eager";
      compute = Xks_lca.Slca.indexed_lookup_eager;
    };
    { name = "Stack_algos.slca"; compute = Xks_lca.Stack_algos.slca };
    { name = "Scan_eager.slca"; compute = Xks_lca.Scan_eager.slca };
    { name = "Multiway.slca"; compute = Xks_lca.Multiway.slca };
  ]

let show_ids ids =
  "[" ^ String.concat "; " (List.map string_of_int ids) ^ "]"

let diff ~stage ~reference doc postings impl =
  let expected = reference doc postings in
  let got = impl.compute doc postings in
  if List.equal Int.equal expected got then []
  else
    [
      Invariant.
        {
          rule = "oracle-" ^ stage;
          detail =
            Printf.sprintf "%s disagrees with the naive %s: naive %s, got %s"
              impl.name stage (show_ids expected) (show_ids got);
        };
    ]

let elca ?(impls = elca_impls) doc postings =
  List.concat_map (diff ~stage:"elca" ~reference:Naive.elca doc postings) impls

let slca ?(impls = slca_impls) doc postings =
  List.concat_map (diff ~stage:"slca" ~reference:Naive.slca doc postings) impls

(* One full differential + invariant audit of a query. *)
let check_query ?(tag = "") idx keywords =
  let contextualise violations =
    match tag with
    | "" -> violations
    | t ->
        List.map
          (fun (x : Invariant.violation) ->
            { x with Invariant.detail = t ^ ": " ^ x.Invariant.detail })
          violations
  in
  match Query.make idx keywords with
  | exception Invalid_argument _ -> []
  | q ->
      let doc = q.Query.doc in
      let postings = q.Query.postings in
      let out = ref [] in
      let push vs = out := vs :: !out in
      (* Static shape of the inputs. *)
      Array.iteri
        (fun i p ->
          push
            (Invariant.posting ~word:q.Query.keywords.(i) doc p);
          push (Invariant.doc_order doc p))
        postings;
      (* Differential: every LCA algorithm against the naive one. *)
      push (elca doc postings);
      push (slca doc postings);
      (* Pipeline invariants downstream of the (checked) ELCA stage. *)
      let elcas = Naive.elca doc postings in
      let rtfs = Rtf.get_rtfs q elcas in
      List.iter (fun r -> push (Invariant.rtf q r)) rtfs;
      List.iter
        (fun (r : Rtf.t) -> push (Invariant.doc_order doc r.Rtf.knodes))
        rtfs;
      (* Valid-contributor pruning post-conditions on the real pipeline
         output. *)
      let result =
        Pipeline.run_query ~lca:Pipeline.Elca_indexed_stack
          ~pruning:Pipeline.Valid_contributor q
      in
      (* The info trees pruning starts from, in both content-feature
         modes, against the direct reference. *)
      List.iter
        (fun r ->
          List.iter
            (fun cid_mode ->
              push
                (Invariant.node_info ~cid_mode q r
                   (Node_info.construct ~cid_mode q r)))
            [ Xks_index.Cid.Approx; Xks_index.Cid.Exact ])
        result.Pipeline.rtfs;
      if
        List.length result.Pipeline.rtfs
        = List.length result.Pipeline.fragments
      then
        List.iter2
          (fun r f -> push (Invariant.valid_contributor_post q r f))
          result.Pipeline.rtfs result.Pipeline.fragments
      else
        push
          [
            Invariant.
              {
                rule = "pipeline-arity";
                detail =
                  Printf.sprintf
                    "pipeline produced %d RTFs but %d pruned fragments"
                    (List.length result.Pipeline.rtfs)
                    (List.length result.Pipeline.fragments);
              };
          ];
      contextualise (List.concat (List.rev !out))

let check_workload idx queries =
  List.concat_map
    (fun keywords ->
      check_query ~tag:(String.concat " " keywords) idx keywords)
    queries
