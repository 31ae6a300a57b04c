module Tree = Xks_xml.Tree
module Bsearch = Xks_util.Bsearch
module Int_vec = Xks_util.Int_vec
module Trace = Xks_trace.Trace

(* Does [u]'s subtree hold, for every keyword but [skip], a witness
   outside every full container strictly below [u]?  Each keyword's
   probes move forward through [u]'s range, so one cursor over the
   ranges of [u]'s candidate children per keyword finds the range (if
   any) holding a probe, and the posting cursors gallop forward from
   probe to probe (back to [u]'s range when the next keyword starts).
   The ranges only accelerate the scan; correctness rests on the [fc]
   validation of each probe: [fc x] is an ancestor-or-self of [x], as
   is [u], so [fc x] lies outside every full container strictly below
   [u] iff [fc x <= u]. *)
let witnessed ?budget ~skip doc postings cursors u kids first =
  let ends = Tree.subtree_ends doc in
  let u_end = ends.(u) in
  let nkids = Int_vec.length kids in
  let k = Array.length postings in
  let all_found = ref true and i = ref 0 in
  while !all_found && !i < k do
    if !i <> skip then begin
      let posting = postings.(!i) in
      let n = Array.length posting in
      let c = ref first and pos = ref u and searching = ref true in
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
          (* xkscost: unticked amortised: the child cursor only moves forward over u's candidate children, and every probe that moves it is ticked *)
          while !c < nkids && ends.(Int_vec.get kids !c) < x do
            incr c
          done;
          if !c < nkids && Int_vec.get kids !c <= x then
            pos := ends.(Int_vec.get kids !c) + 1
          else
            (* [f] is -1 only when some list is empty; that list's own
               turn then finds no witness. *)
            let f = Probe.fc doc postings cursors x in
            if f <= u then searching := false else pos := ends.(f) + 1
        end
      done
    end;
    incr i
  done;
  !all_found

let is_elca ?budget doc postings cursors u kids first =
  witnessed ?budget ~skip:(-1) doc postings cursors u kids first

(* The scan's state is three {!Xks_util.Scratch} stacks of ids, so a
   driver occurrence allocates nothing: [opened] holds the open
   candidates (one root-to-leaf chain) as pairs of id and start of its
   segment of [kids], which holds their candidate children in stack
   order (a popped candidate's id joins its parent's segment, the new
   top one); [emitted] holds the maximal ELCAs emitted so far,
   ascending, and lends [emit] its entries [>= u] as [u]'s [passed]. *)
let scan ?budget ~emit ~stop doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then 0
  else
    Xks_util.Scratch.with_ints @@ fun emitted ->
    Xks_util.Scratch.with_ints @@ fun opened ->
    Xks_util.Scratch.with_ints @@ fun kids ->
    let driver = Probe.smallest_list_index postings in
    let s1 = postings.(driver) in
    let n1 = Array.length s1 in
    let ends = Tree.subtree_ends doc in
    (* The driver probes ascending occurrences, so its cursors only move
       forward; the witness checks keep their own. *)
    let cursors = Probe.cursors postings
    and witness = Probe.cursors postings in
    (* The top candidate, [-1] when none is open. *)
    let top = ref (-1) in
    (* Pop the top candidate; emit it if it passes the check; hand its id
       to the candidate below (its ancestor) as a candidate child. *)
    let pop_and_check () =
      Trace.incr Trace.Elca_popped;
      (* Ticked so the post-driver drain (and the unwind spine) stays
         under the deadline even when no new occurrence arrives. *)
      Xks_robust.Budget.tick_opt budget 1;
      let first = Int_vec.pop opened in
      let u = Int_vec.pop opened in
      let depth = Int_vec.length opened in
      top := if depth > 0 then Int_vec.get opened (depth - 2) else -1;
      (* The driver occurrence that opened [u] witnesses the driver
         keyword (see the interface). *)
      if witnessed ?budget ~skip:driver doc postings witness u kids first
      then begin
        let p = ref (Int_vec.length emitted) in
        (* xkscost: unticked amortised: each emitted ELCA leaves the stack once, into the passed slice of its nearest emitted ancestor, under that ancestor's ticked pop *)
        while !p > 0 && Int_vec.get emitted (!p - 1) >= u do
          decr p
        done;
        emit u emitted !p;
        Int_vec.truncate emitted !p;
        Int_vec.push emitted u
      end;
      Int_vec.truncate kids first;
      if depth > 0 then Int_vec.push kids u;
      u
    in
    let process v =
      Trace.incr Trace.Nodes_visited;
      Xks_robust.Budget.tick_opt budget 1;
      (* Never -1: no list is empty. *)
      let x = Probe.fc doc postings cursors v in
      let x_end = ends.(x) in
      (* Close candidates that are not ancestors of [x]; the last one
         closed becomes [x]'s candidate child when it empties the stack
         and lies under [x]. *)
      while !top >= 0 && not (!top <= x && x <= ends.(!top)) do
        let u = pop_and_check () in
        if !top < 0 && x <= u && u <= x_end then Int_vec.push kids u
      done;
      if !top <> x then begin
        (* With the stack empty, [kids] holds at most the child just
           handed over, which opens [x]'s segment. *)
        let first = if !top < 0 then 0 else Int_vec.length kids in
        Trace.incr Trace.Elca_pushed;
        Int_vec.push opened x;
        Int_vec.push opened first;
        top := x
      end
    in
    let i = ref 0 and stopped = ref false in
    while (not !stopped) && !i < n1 do
      process s1.(!i);
      incr i;
      if !i < n1 || !top >= 0 then stopped := stop ()
    done;
    while (not !stopped) && !top >= 0 do
      ignore (pop_and_check () : int);
      if !top >= 0 then stopped := stop ()
    done;
    !i

let elca ?budget doc postings =
  let results = ref [] in
  let emit u _ _ = results := u :: !results in
  ignore (scan ?budget ~emit ~stop:(fun () -> false) doc postings : int);
  List.sort Int.compare !results
