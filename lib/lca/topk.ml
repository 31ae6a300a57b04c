(* Top-k ELCA retrieval with score-bounded early termination: a sink of
   [Indexed_stack.scan].

   1. [emit u passed first] scores each ELCA as it pops.  Its tf under
      the RTF dispatch semantics (every keyword occurrence goes to the
      deepest emitted LCA containing it) is

        tf_i = |posting_i ∩ range(u)| − Σ over passed |posting_i ∩ r|

      exact because [passed] (from [first] on) names the maximal ELCAs
      emitted inside [u], and every ELCA inside [u] pops before it.
      Both terms come from the sweep's own state, with no search per
      passed range:
      - the ELCAs pop in post-order, so the subtree ends of emitted
        ELCAs never decrease, and [hi_i] (entries of posting i up to the
        end of the last emitted ELCA) only gallops forward; the first
        entry in [u]'s range is a gallop back from it;
      - the ELCAs inside [u] were emitted as one run just before [u], so
        the second term is [consumed_i − base_i], where [consumed_i]
        counts the occurrences dispatched so far (item 2) and [base] is
        [consumed] when that run began.  A stack of [nk]-int frames
        mirrors the scan's stack of maximal emitted ELCAs: an emit pops
        one frame per passed range, and [u]'s run began with the
        deepest of them (or now, when [passed] is empty).
      The budget is charged as when each keyword and passed range cost a
      search: [|passed|] per keyword, [nk × |passed|] per emit.

   2. [stop] is the availability bound.  Let [consumed_i] be the total
      tf_i over emitted fragments; the knodes of distinct RTFs partition
      keyword occurrences, so any fragment emitted later satisfies
      tf_i <= avail_i = df_i − consumed_i, and [bound ~avail] (monotone
      in each tf) caps its score.  Once the heap holds k fragments and
      the bound is *strictly* below the heap's minimum score, no unseen
      fragment can enter the top k — strictness matters because score
      ties break toward the smaller LCA id, and ancestors (smaller
      preorder ids) pop late.  The scan asks after each driver
      occurrence and after each drain pop; [avail] and the heap change
      only in [emit], so the bound is evaluated at the first ask after
      an emit, and the exit fires on the same ask.  It usually fires in
      the drain: popping the last container of a keyword drives its
      avail to zero and the bound to -inf, so no surviving ancestor (in
      particular the root, whose witness scan over its accumulated child
      ranges is the single most expensive pop) can still be an ELCA.

      [Topk_pruned_postings] records the total avail at exit time: the
      keyword occurrences the exit freed us from ever dispatching.

   3. The k winners' keyword nodes are merged from their posting ranges,
      one tick per posting entry in the winner's range. *)

module Tree = Xks_xml.Tree
module Bsearch = Xks_util.Bsearch
module Int_vec = Xks_util.Int_vec
module Topheap = Xks_util.Topheap
module Trace = Xks_trace.Trace

type candidate = {
  lca : int;
  score : float;
  tf : int array;
  knodes : int array;
}

type outcome = { top : candidate list; early_exit : bool; scanned : int }

let run ?budget ~k ~score ~bound doc postings =
  if k < 1 then invalid_arg "Topk.run: k must be >= 1";
  let nk = Array.length postings in
  let ends = Tree.subtree_ends doc in
  let heap = Topheap.create ~capacity:k in
  let consumed = Array.make nk 0 in
  (* One tf vector per run: [score] only reads it during the call, and
     it is copied only for a fragment the heap admits. *)
  let tf = Array.make nk 0 in
  (* [hi.(j)]: the entries of posting [j] up to the end of the last
     emitted ELCA. *)
  let hi = Array.make nk 0 in
  let early = ref false in
  (* Like [tf], [avail] is one scratch vector per run. *)
  let avail = Array.make nk 0 in
  let emitted_since_bound = ref false in
  let stop () =
    if !emitted_since_bound && Topheap.is_full heap then begin
      emitted_since_bound := false;
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
  let scanned =
    Xks_util.Scratch.with_ints (fun bases ->
        let emit u passed first =
          let p = Int_vec.length passed - first in
          (* [u]'s frame replaces the [p] frames of its passed ranges and
             keeps the deepest one's base; with none, its run starts now. *)
          let frame =
            if p = 0 then Int_vec.length bases
            else begin
              Int_vec.truncate bases (Int_vec.length bases - ((p - 1) * nk));
              Int_vec.length bases - nk
            end
          in
          for j = 0 to nk - 1 do
            (* A new frame starts at [consumed]; otherwise each passed
               range is charged as when it cost a search. *)
            if p = 0 then Int_vec.push bases consumed.(j)
            else Xks_robust.Budget.tick_opt budget p;
            let posting = postings.(j) in
            let h = Bsearch.upper_bound_from posting ~lo:hi.(j) ends.(u) in
            hi.(j) <- h;
            let lo = Bsearch.upper_bound_back posting ~hi:h (u - 1) in
            let c = h - lo - (consumed.(j) - Int_vec.get bases (frame + j)) in
            tf.(j) <- c;
            consumed.(j) <- consumed.(j) + c
          done;
          emitted_since_bound := true;
          let s = score ~lca:u ~tf in
          if Topheap.admits heap ~score:s ~id:u then
            let inner = Array.init p (fun i -> Int_vec.get passed (first + i)) in
            ignore (Topheap.insert heap ~score:s ~id:u (Array.copy tf, inner) : bool)
        in
        Indexed_stack.scan ?budget ~emit ~stop doc postings)
  in
  (* The posting entries in a winner's range outside its passed ranges
     (disjoint, in document order), merged: each step takes the smallest
     head, so a node in several lists is met in consecutive steps. *)
  let knodes_of u passed =
    (* xkscost: unticked k-bounded: one binary search per keyword list *)
    let cur = Array.map (fun posting -> Bsearch.lower_bound posting u) postings in
    (* xkscost: unticked k-bounded: one binary search per keyword list *)
    let last = Array.map (fun posting -> Bsearch.upper_bound posting ends.(u)) postings in
    let r = ref 0 and np = Array.length passed in
    Xks_util.Scratch.with_ints (fun out ->
        let prev = ref (-1) and m = ref 0 in
        while !m >= 0 do
          let x = ref max_int in
          m := -1;
          (* xkscost: unticked k-bounded: one head read per keyword list *)
          for j = 0 to nk - 1 do
            if cur.(j) < last.(j) && postings.(j).(cur.(j)) < !x then begin
              m := j;
              x := postings.(j).(cur.(j))
            end
          done;
          if !m >= 0 then begin
            (* One posting entry per step: ticked so materialising a
               huge winner subtree is interruptible. *)
            Xks_robust.Budget.tick_opt budget 1;
            cur.(!m) <- cur.(!m) + 1;
            (* xkscost: unticked amortised: the passed cursor only moves forward over the winner's disjoint passed ranges, under the merge's per-entry ticks *)
            while !r < np && ends.(passed.(!r)) < !x do
              incr r
            done;
            if !x <> !prev && not (!r < np && passed.(!r) <= !x) then
              Int_vec.push out !x;
            prev := !x
          end
        done;
        Int_vec.to_array out)
  in
  let top =
    List.map
      (fun (s, id, (tf, passed)) ->
        { lca = id; score = s; tf; knodes = knodes_of id passed })
      (Topheap.to_sorted_list heap)
  in
  { top; early_exit = !early; scanned }
