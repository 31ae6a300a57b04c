module Tree = Xks_xml.Tree
module Bsearch = Xks_util.Bsearch
module Int_vec = Xks_util.Int_vec
module Trace = Xks_trace.Trace

type entry = {
  node : int;  (* an ELCA candidate: a full container *)
  node_end : int;  (* last id of its subtree *)
  mutable child_ranges : (int * int) list;
      (* preorder ranges of candidate children already determined, most
         recent first; disjoint, each inside [node]'s range *)
}

(* Drop the leading ranges that end before [x] (ascending, disjoint). *)
(* xkscost: unticked amortised: the range cursor only moves forward over u's disjoint child ranges, and every probe that moves it is ticked *)
let rec skip_ranges_before (x : int) = function
  | (_, hi) :: rest when hi < x -> skip_ranges_before x rest
  | ranges -> ranges

(* Does [u]'s subtree hold, for every keyword, a witness outside every
   full container strictly below [u]?  Each keyword's probes move
   forward through [u]'s range, so one cursor over the ascending child
   ranges per keyword finds the range (if any) holding a probe in
   amortised O(1), and the posting cursors gallop forward from probe to
   probe (back to [u]'s range when the next keyword starts).
   [child_ranges] only accelerates the scan; correctness rests on the
   [fc] validation of each probe: [fc x] is an ancestor-or-self of [x],
   as is [u], so [fc x] lies outside every full container strictly
   below [u] iff [fc x <= u]. *)
let is_elca ?budget doc postings cursors u child_ranges =
  let ends = Tree.subtree_ends doc in
  let u_end = ends.(u) in
  let ranges = List.rev child_ranges (* ascending start *) in
  let k = Array.length postings in
  let all_found = ref true and i = ref 0 in
  while !all_found && !i < k do
    let posting = postings.(!i) in
    let n = Array.length posting in
    let cursor = ref ranges in
    let pos = ref u and searching = ref true in
    while !searching do
      Xks_robust.Budget.tick_opt budget 1;
      (* The first occurrence at or after [pos]. *)
      let j = Bsearch.upper_bound_from posting ~lo:cursors.(!i) (!pos - 1) in
      cursors.(!i) <- j;
      if j = n || posting.(j) > u_end then begin
        all_found := false;
        searching := false
      end
      else begin
        let x = posting.(j) in
        cursor := skip_ranges_before x !cursor;
        match !cursor with
        | (lo, hi) :: _ when lo <= x -> pos := hi + 1
        | _ :: _ | [] ->
            (* [f] is -1 only when some list is empty; that list's own
               turn then finds no witness. *)
            let f = Probe.fc doc postings cursors x in
            if f <= u then searching := false else pos := ends.(f) + 1
      end
    done;
    incr i
  done;
  !all_found

(* [passed] comes from one stack of emitted ids.  Candidates pop in
   post-order (the open entries form one root-to-leaf chain, and a node
   is pushed only after every open non-ancestor has popped), so every
   ELCA inside [u] is emitted before [u], and every other ELCA emitted
   before [u] lies wholly before it in document order.  [emitted] holds
   the maximal ELCAs emitted so far, ascending: when [u] is emitted, the
   entries [>= u] are exactly the maximal ELCAs inside [u]; they are
   popped into [u]'s [passed] and [u] takes their place. *)
let scan ?budget ~emit ~stop doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then 0
  else
    Xks_util.Scratch.with_ints (fun emitted ->
      let s1 = postings.(Probe.smallest_list_index postings) in
      let n1 = Array.length s1 in
      let ends = Tree.subtree_ends doc in
      (* The driver probes ascending occurrences, so its cursors only move
         forward; the witness checks keep their own. *)
      let cursors = Probe.cursors postings
      and witness = Probe.cursors postings in
      let stack = ref [] in
      (* xkscost: unticked amortised: each emitted ELCA is popped once, into the passed list of its nearest emitted ancestor, under that ancestor's ticked pop *)
      let rec passed_inside u acc =
        if Int_vec.length emitted > 0 && Int_vec.last emitted >= u then begin
          let v = Int_vec.pop emitted in
          passed_inside u ((v, ends.(v)) :: acc)
        end
        else acc
      in
      (* Pop [e]; emit it if it passes the check; hand its range to the
         entry below (its ancestor) as a candidate child. *)
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
            if is_elca ?budget doc postings witness e.node e.child_ranges
            then begin
              emit e.node (passed_inside e.node []);
              Int_vec.push emitted e.node
            end;
            (match rest with
            | parent :: _ -> parent.child_ranges <- range :: parent.child_ranges
            | [] -> ());
            range
      in
      let process v =
        Trace.incr Trace.Nodes_visited;
        Xks_robust.Budget.tick_opt budget 1;
        (* Never -1: no list is empty. *)
        let x = Probe.fc doc postings cursors v in
        let x_end = ends.(x) in
        (* Close candidates that are not ancestors of [x]; collect the
           ranges of those lying under [x] (they become [x]'s candidate
           children when the stack empties below them). *)
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
        | e :: _ when e.node = x ->
            (* Candidate already open; nothing to add ([pending] is empty:
               anything popped went to this entry). *)
            ()
        | _ ->
            Trace.incr Trace.Elca_pushed;
            stack :=
              { node = x; node_end = x_end; child_ranges = !pending } :: !stack
      in
      let i = ref 0 and stopped = ref false in
      while (not !stopped) && !i < n1 do
        process s1.(!i);
        incr i;
        if !i < n1 || !stack <> [] then stopped := stop ()
      done;
      while (not !stopped) && !stack <> [] do
        ignore (pop_and_check () : int * int);
        if !stack <> [] then stopped := stop ()
      done;
      !i)

let elca ?budget doc postings =
  let results = ref [] in
  let emit u _ = results := u :: !results in
  ignore (scan ?budget ~emit ~stop:(fun () -> false) doc postings : int);
  List.sort Int.compare !results
