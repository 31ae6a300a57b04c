module Budget = Xks_robust.Budget
module Trace = Xks_trace.Trace

type lca_algorithm = Elca_indexed_stack | Elca_tree_scan | Slca_only
type pruning = Valid_contributor | Contributor | No_pruning

type result = {
  query : Query.t;
  lcas : int list;
  rtfs : Rtf.t list;
  fragments : Fragment.t list;
}

let get_lcas ?budget lca (q : Query.t) =
  if not (Query.has_results q) then []
  else
    match lca with
    | Elca_indexed_stack -> Xks_lca.Indexed_stack.elca ?budget q.doc q.postings
    | Elca_tree_scan ->
        let lcas = Xks_lca.Tree_scan.elca q.doc q.postings in
        Budget.tick_opt budget (List.length lcas);
        lcas
    | Slca_only ->
        (* Ticked per occurrence of the rarest keyword inside the sweep —
           strictly finer than the old per-result charge, and a deadline
           now interrupts the sweep itself. *)
        Xks_lca.Slca.indexed_lookup_eager ?budget q.doc q.postings

(* pruneRTF for one RTF: charge the budget, construct the node info,
   prune it.  The full pipeline and the ranked winners both build their
   fragments here; the two halves are timed as separate stages. *)
let fragment ?cid_mode ?budget pruning q (rtf : Rtf.t) =
  Budget.tick_opt budget (1 + Array.length rtf.knodes);
  let t0 = Trace.start () in
  let info = Node_info.construct ?cid_mode q rtf in
  Trace.stop Trace.Construct t0;
  let t0 = Trace.start () in
  let fragment =
    match pruning with
    | Valid_contributor -> Prune.valid_contributor info
    | Contributor -> Prune.contributor info
    | No_pruning -> Prune.keep_all info
  in
  Trace.stop Trace.Prune t0;
  fragment

let lcas_rtfs ?budget ~lca q =
  (* getKeywordNodes already happened in [Query.make]; charge its cost
     (the posting entries the query holds) up front so oversized queries
     exhaust a node budget before any LCA work starts. *)
  Budget.tick_opt budget
    (Array.fold_left (fun acc p -> acc + Array.length p) 0 q.Query.postings);
  let lcas = Trace.with_stage Trace.Lca (fun () -> get_lcas ?budget lca q) in
  (lcas, Trace.with_stage Trace.Rtf (fun () -> Rtf.get_rtfs ?budget q lcas))

let run_query ?cid_mode ?budget ~lca ~pruning q =
  let lcas, rtfs = lcas_rtfs ?budget ~lca q in
  { query = q; lcas; rtfs;
    fragments = List.map (fragment ?cid_mode ?budget pruning q) rtfs }

let run ?cid_mode ~lca ~pruning idx ws =
  run_query ?cid_mode ~lca ~pruning (Query.make idx ws)
