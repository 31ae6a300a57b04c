(* Top-k ELCA retrieval with score-bounded early termination: a sink of
   [Indexed_stack.scan].

   1. [emit u passed] scores each ELCA as it pops.  Its per-keyword term
      frequency under the RTF dispatch semantics (every keyword
      occurrence goes to the deepest emitted LCA containing it) is

        tf_i = |posting_i ∩ range(u)| − Σ over passed |posting_i ∩ r|

      exact because [passed] names the maximal ELCAs emitted inside [u],
      and every ELCA inside [u] pops before it.

   2. [stop] is the availability bound.  Let [consumed_i] be the total
      tf_i over emitted fragments; the knodes of distinct RTFs partition
      keyword occurrences, so any fragment emitted later satisfies
      tf_i <= avail_i = df_i − consumed_i, and [bound ~avail] (monotone
      in each tf) caps its score.  Once the heap holds k fragments and
      the bound is *strictly* below the heap's minimum score, no unseen
      fragment can enter the top k — strictness matters because score
      ties break toward the smaller LCA id, and ancestors (smaller
      preorder ids) pop late.  The scan asks after each driver
      occurrence and after each drain pop.  The exit usually fires in
      the drain: popping the last container of a keyword drives its
      avail to zero and the bound to -inf, so no surviving ancestor (in
      particular the root, whose witness scan over its accumulated child
      ranges is the single most expensive pop) can still be an ELCA.

      [Topk_pruned_postings] records the total avail at exit time: the
      keyword occurrences the exit freed us from ever dispatching. *)

module Tree = Xks_xml.Tree
module Bsearch = Xks_util.Bsearch
module Topheap = Xks_util.Topheap
module Trace = Xks_trace.Trace

type candidate = {
  lca : int;
  score : float;
  tf : int array;
  knodes : int array;
}

type outcome = { top : candidate list; early_exit : bool; scanned : int }

(* Occurrences of [posting] in [u]'s range ([acc], counted by the
   caller) minus those inside its passed ranges: one binary search per
   passed range, ticked so an emit over a long accounting list is
   interruptible. *)
let rec count_dispatched ?budget posting acc = function
  | [] -> acc
  | (lo, hi) :: passed ->
      Xks_robust.Budget.tick_opt budget 1;
      count_dispatched ?budget posting
        (acc - Bsearch.count_in_range posting ~lo ~hi)
        passed

let run ?budget ~k ~score ~bound doc postings =
  if k < 1 then invalid_arg "Topk.run: k must be >= 1";
  let nk = Array.length postings in
  let ends = Tree.subtree_ends doc in
  let heap = Topheap.create ~capacity:k in
  let consumed = Array.make nk 0 in
  (* One tf vector per run: [score] only reads it during the call, and
     it is copied only for a fragment the heap admits. *)
  let tf = Array.make nk 0 in
  let emit u passed =
    for j = 0 to nk - 1 do
      let c =
        count_dispatched ?budget postings.(j)
          (Bsearch.count_in_range postings.(j) ~lo:u ~hi:ends.(u))
          passed
      in
      tf.(j) <- c;
      consumed.(j) <- consumed.(j) + c
    done;
    let s = score ~lca:u ~tf in
    if Topheap.admits heap ~score:s ~id:u then
      ignore (Topheap.insert heap ~score:s ~id:u (Array.copy tf, passed) : bool)
  in
  let early = ref false in
  (* Like [tf], [avail] is one scratch vector per run. *)
  let avail = Array.make nk 0 in
  let stop () =
    if Topheap.is_full heap then begin
      (* xkscost: unticked k-bounded: one length/counter read per keyword *)
      for j = 0 to nk - 1 do
        avail.(j) <- Array.length postings.(j) - consumed.(j)
      done;
      if bound ~avail < Topheap.min_score heap then begin
        early := true;
        Trace.incr Trace.Topk_early_exit;
        Trace.add Trace.Topk_pruned_postings
          (* xkscost: unticked k-bounded: sums the k per-keyword avail counters *)
          (Array.fold_left ( + ) 0 avail)
      end
    end;
    !early
  in
  let scanned = Indexed_stack.scan ?budget ~emit ~stop doc postings in
  (* Materialise keyword nodes only for the k winners: posting entries
     in the winner's range minus its emitted-descendant ranges, merged
     and deduplicated.  The passed ranges are disjoint, so sorting
     them once lets each posting be filtered in a single merge sweep
     (postings are ascending). *)
  let knodes_of lca_id passed =
    let passed =
      List.sort (fun (a, _) (b, _) -> Int.compare a b) passed
    in
    Xks_util.Scratch.with_ints (fun out ->
        Array.iter
          (fun posting ->
            let lo = Bsearch.lower_bound posting lca_id in
            let hi = Bsearch.upper_bound posting ends.(lca_id) in
            let remaining = ref passed in
            for j = lo to hi - 1 do
              (* One posting entry per iteration: ticked so
                 materialising a huge winner subtree is interruptible. *)
              Xks_robust.Budget.tick_opt budget 1;
              let id = posting.(j) in
              (* xkscost: unticked monotone prefix skip over the sorted passed ranges; the enclosing for loop ticks per posting entry *)
              let rec advance = function
                | (_, b) :: rest when b < id -> advance rest
                | l -> l
              in
              remaining := advance !remaining;
              match !remaining with
              | (a, _) :: _ when id >= a -> ()
              | (_, _) :: _ | [] -> Xks_util.Int_vec.push out id
            done)
          postings;
        Xks_util.Int_vec.sort_uniq out;
        Xks_util.Int_vec.to_array out)
  in
  let top =
    List.map
      (fun (s, id, (tf, passed)) ->
        { lca = id; score = s; tf; knodes = knodes_of id passed })
      (Topheap.to_sorted_list heap)
  in
  { top; early_exit = !early; scanned }
