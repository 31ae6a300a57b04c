module Tree = Xks_xml.Tree
module Bsearch = Xks_util.Bsearch
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

let elca ?budget doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then []
  else begin
    let s1 = postings.(Probe.smallest_list_index postings) in
    let ends = Tree.subtree_ends doc in
    (* The driver probes ascending occurrences, so its cursors only move
       forward; the witness checks keep their own. *)
    let cursors = Probe.cursors postings
    and witness = Probe.cursors postings in
    let results = ref [] in
    let stack = ref [] in
    (* Pop [e], emit it if it passes the check, and hand its range to the
       entry below (its ancestor when the stack is non-empty). *)
    let pop_and_check () =
      match !stack with
      | [] -> assert false
      | e :: rest ->
          Trace.incr Trace.Elca_popped;
          (* Ticked so the post-driver drain (and the unwind spine) stays
             under the deadline even when no new occurrence arrives. *)
          Xks_robust.Budget.tick_opt budget 1;
          stack := rest;
          if is_elca ?budget doc postings witness e.node e.child_ranges then
            results := e.node :: !results;
          let range = (e.node, e.node_end) in
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
          stack := { node = x; node_end = x_end; child_ranges = !pending } :: !stack
    in
    Array.iter process s1;
    while !stack <> [] do
      ignore (pop_and_check ())
    done;
    List.sort Int.compare !results
  end
