(* Top-k ELCA retrieval with score-bounded early termination.

   The scan is [Indexed_stack.elca] verbatim — same driver list, same
   stack discipline, same [is_elca] witness check — with two additions:

   1. Each stack entry also tracks [passed]: the preorder ranges of the
      *maximal* already-emitted ELCAs strictly inside it.  When an entry
      pops and passes the witness check, its per-keyword term frequency
      under the RTF dispatch semantics (every keyword occurrence goes to
      the deepest emitted LCA containing it) is

        tf_i = |posting_i ∩ range(u)| − Σ over passed |posting_i ∩ r|

      which is exact because any ELCA nested in [u] is pushed and popped
      while [u] is still on the stack, so [u]'s emitted-descendant set
      is final at its own pop.  A passed child contributes its own range
      to its parent's [passed]; a failed child contributes the ranges it
      had collected (they stay maximal and disjoint).

   2. A consumed-occurrence upper bound drives early exit.  Let
      [consumed_i] be the total tf_i over emitted fragments; the knodes
      of distinct RTFs partition keyword occurrences, so any fragment
      emitted later satisfies tf_i <= avail_i = df_i − consumed_i, and
      [bound ~avail] (monotone in each tf) caps its score.  Once the
      heap holds k fragments and the bound is *strictly* below the
      heap's minimum score, no unseen fragment can enter the top k —
      strictness matters because score ties break toward the smaller
      LCA id, and ancestors (smaller preorder ids) pop late.  The
      check runs at two sites:

      - after each driver occurrence, where success skips the rest of
        the driver scan and the whole drain (all future fragments are
        covered by the bound), and

      - after each drain pop, where success skips the remaining spine.
        This is where the exit usually fires in practice: popping the
        last container of a keyword drives its avail to zero, and the
        bound collapses to -inf — every occurrence of that keyword is
        dispatched, so no surviving ancestor (in particular the root,
        whose witness scan over its accumulated child ranges is the
        single most expensive pop) can still be an ELCA.

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

type entry = {
  node : int;
  node_end : int;
  mutable child_ranges : (int * int) list;
  mutable passed : (int * int) list;
      (* maximal emitted-ELCA ranges inside [node], disjoint *)
}

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
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if nk = 0 || Array.exists (fun s -> Array.length s = 0) postings then
    { top = []; early_exit = false; scanned = 0 }
  else begin
    let s1 = postings.(Probe.smallest_list_index postings) in
    let n1 = Array.length s1 in
    let ends = Tree.subtree_ends doc in
    let cursors = Probe.cursors postings
    and witness = Probe.cursors postings in
    let heap = Topheap.create ~capacity:k in
    let consumed = Array.make nk 0 in
    let stack = ref [] in
    (* Emitted-ELCA ranges not (yet) inside any open stack entry: when
       the stack empties, the popped entry's accounted ranges survive
       here until an entry containing them is pushed — possibly much
       later and much shallower (e.g. the document root, whose tf must
       still exclude every occurrence dispatched to earlier subtrees).
       Orphans are always disjoint from every open entry's range, so
       only a newly pushed entry can absorb them. *)
    let orphans = ref [] in
    (* [orphans] and every [passed] list stay sorted descending by
       range start: ranges are handed up / orphaned in document order,
       so prepending preserves the order, and the ranges a new entry
       [x] contains are exactly the prefix with [lo >= x] (closed
       ranges end before the scan position inside [x], so they cannot
       start after [x]'s subtree ends).  That makes claiming them a
       prefix take — amortised O(1) per push, where a predicate
       partition over the whole list is quadratic across the scan. *)
    let split_inside (cutoff : int) ranges =
      (* xkscost: unticked amortised prefix take: each range is claimed at most once per handoff, and every handoff happens under a ticked pop/push *)
      let rec go acc = function
        | ((lo, _) as r) :: rest when lo >= cutoff -> go (r :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      go [] ranges
    in
    (* One tf vector per run: [score] only reads it during the call, and
       it is copied only for a fragment the heap admits. *)
    let tf = Array.make nk 0 in
    let emit u u_end passed =
      for j = 0 to nk - 1 do
        let c =
          count_dispatched ?budget postings.(j)
            (Bsearch.count_in_range postings.(j) ~lo:u ~hi:u_end)
            passed
        in
        tf.(j) <- c;
        consumed.(j) <- consumed.(j) + c
      done;
      let s = score ~lca:u ~tf in
      if Topheap.admits heap ~score:s ~id:u then
        ignore (Topheap.insert heap ~score:s ~id:u (Array.copy tf, passed) : bool)
    in
    (* Pop [e]; emit it if it passes the check; hand its range (and the
       emitted ranges it accounts for) to the entry below. *)
    let pop_and_check () =
      match !stack with
      | [] -> assert false
      | e :: rest ->
          Trace.incr Trace.Elca_popped;
          (* Ticked so the post-driver drain (and the unwind spine) stays
             under the deadline even when no new occurrence arrives. *)
          Xks_robust.Budget.tick_opt budget 1;
          stack := rest;
          let range = (e.node, e.node_end) in
          let passed_up =
            if
              Indexed_stack.is_elca ?budget doc postings witness e.node
                e.child_ranges
            then begin
              emit e.node e.node_end e.passed;
              [ range ]
            end
            else e.passed
          in
          (match rest with
          | parent :: _ ->
              parent.child_ranges <- range :: parent.child_ranges;
              (* xkscost: allow list-append passed_up is [range] or the popped entry's own ranges, handed up exactly once — amortised O(1) per pop *)
              parent.passed <- passed_up @ parent.passed
          (* xkscost: allow list-append same single handoff as above, to the orphan pool *)
          | [] -> orphans := passed_up @ !orphans);
          range
    in
    let process v =
      Trace.incr Trace.Nodes_visited;
      Xks_robust.Budget.tick_opt budget 1;
      (* Never -1: no list is empty. *)
      let x = Probe.fc doc postings cursors v in
      let x_end = ends.(x) in
      let pending = ref [] in
      let rec unwind () =
        match !stack with
        | e :: _ when not (e.node <= x && x <= e.node_end) ->
            let range = pop_and_check () in
            if !stack = [] && x <= e.node && e.node <= x_end then
              pending := range :: !pending;
            unwind ()
        | _ -> ()
      in
      unwind ();
      match !stack with
      | e :: _ when e.node = x -> ()
      | _ ->
          Trace.incr Trace.Elca_pushed;
          (* Absorb the orphaned emitted ranges that [x] contains: [x]
             is the first open entry to contain them (any lower entry
             pushed since they were orphaned would have absorbed them
             already, and entries below [x] are its ancestors). *)
          let absorbed, outside = split_inside x !orphans in
          orphans := outside;
          (* Steal from the nearest open ancestor the emitted ranges
             [x] contains: they popped before [x] opened, so they were
             handed to what was then the stack top — a node above [x].
             Applied at every push, this keeps each range at the
             deepest open entry containing it, which is exactly what
             the tf subtraction in [emit] needs.  (At most one source
             is nonempty: an open ancestor would itself have absorbed
             any orphan inside [x].) *)
          let inside =
            match !stack with
            | parent :: _ ->
                let mine, theirs = split_inside x parent.passed in
                parent.passed <- theirs;
                (* xkscost: allow list-append mine and absorbed are both prefix takes claimed exactly once per range *)
                mine @ absorbed
            | [] -> absorbed
          in
          stack :=
            { node = x; node_end = x_end; child_ranges = !pending; passed = inside }
            :: !stack
    in
    let early = ref false in
    (* Work remains (driver tail or un-popped stack entries): see
       whether the bound already rules every future fragment out.  Like
       [tf], [avail] is one scratch vector per run. *)
    let avail = Array.make nk 0 in
    let try_exit () =
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
      end
    in
    let i = ref 0 in
    while (not !early) && !i < n1 do
      process s1.(!i);
      incr i;
      if !i < n1 || !stack <> [] then try_exit ()
    done;
    while (not !early) && !stack <> [] do
      ignore (pop_and_check () : int * int);
      if !stack <> [] then try_exit ()
    done;
    stack := [];
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
    { top; early_exit = !early; scanned = !i }
  end
