module Tree = Xks_xml.Tree
module Bsearch = Xks_util.Bsearch
module Trace = Xks_trace.Trace

type entry = {
  node : Tree.node;  (* an ELCA candidate: a full container *)
  mutable child_ranges : (int * int) list;
      (* preorder ranges of candidate children already determined, most
         recent first; disjoint, each inside [node]'s range *)
}

(* Drop the leading ranges that end before [x] (ascending, disjoint). *)
(* xkscost: unticked amortised: the range cursor only moves forward over u's disjoint child ranges, and every probe that moves it is ticked *)
let rec skip_ranges_before x = function
  | (_, hi) :: rest when hi < x -> skip_ranges_before x rest
  | ranges -> ranges

(* Does [u]'s subtree hold, for every keyword, a witness outside every
   full container strictly below [u]?  Each keyword's probes move
   forward through [u]'s range, so one cursor over the ascending child
   ranges per keyword finds the range (if any) holding a probe in
   amortised O(1).  [child_ranges] only accelerates the scan;
   correctness rests on the [fc] validation of each probe: [fc x] is an
   ancestor-or-self of [x], as is [u], so [fc x] lies outside every
   full container strictly below [u] iff [(fc x).id <= u.id]. *)
let is_elca ?budget doc postings (u : Tree.node) child_ranges =
  let ranges = List.rev child_ranges (* ascending start *) in
  let k = Array.length postings in
  let all_found = ref true and i = ref 0 in
  while !all_found && !i < k do
    let posting = postings.(!i) in
    let n = Array.length posting in
    let cursor = ref ranges in
    let pos = ref u.id and searching = ref true in
    while !searching do
      Xks_robust.Budget.tick_opt budget 1;
      let j = Bsearch.lower_bound posting !pos in
      if j = n || posting.(j) > u.subtree_end then begin
        all_found := false;
        searching := false
      end
      else begin
        let x = posting.(j) in
        cursor := skip_ranges_before x !cursor;
        match !cursor with
        | (lo, hi) :: _ when lo <= x -> pos := hi + 1
        | _ :: _ | [] -> (
            match Probe.fc doc postings (Tree.node doc x) with
            | None -> assert false (* no list is empty here *)
            | Some f ->
                if f.id <= u.id then searching := false
                else pos := f.subtree_end + 1)
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
          if is_elca ?budget doc postings e.node e.child_ranges then
            results := e.node.id :: !results;
          let range = (e.node.id, e.node.subtree_end) in
          (match rest with
          | parent :: _ -> parent.child_ranges <- range :: parent.child_ranges
          | [] -> ());
          range
    in
    let process v =
      Trace.incr Trace.Nodes_visited;
      Xks_robust.Budget.tick_opt budget 1;
      let x =
        match Probe.fc doc postings (Tree.node doc v) with
        | Some n -> n
        | None -> assert false
      in
      (* Close candidates that are not ancestors of [x]; collect the
         ranges of those lying under [x] (they become [x]'s candidate
         children when the stack empties below them). *)
      let pending = ref [] in
      let rec unwind () =
        match !stack with
        | e :: _ when not (Tree.in_subtree ~root:e.node x) ->
            let range = pop_and_check () in
            if !stack = [] && Tree.in_subtree ~root:x e.node then
              pending := range :: !pending;
            unwind ()
        | _ -> ()
      in
      unwind ();
      match !stack with
      | e :: _ when e.node.id = x.id ->
          (* Candidate already open; nothing to add ([pending] is empty:
             anything popped went to this entry). *)
          ()
      | _ ->
          Trace.incr Trace.Elca_pushed;
          stack := { node = x; child_ranges = !pending } :: !stack
    in
    Array.iter process s1;
    while !stack <> [] do
      ignore (pop_and_check ())
    done;
    List.sort Int.compare !results
  end
