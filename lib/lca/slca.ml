module Tree = Xks_xml.Tree

(* In document order, a candidate has a candidate strictly below it iff
   its immediate successor is in its subtree (preorder ranges are
   intervals), so one linear sweep removes all non-minimal ones. *)
let rec filter_minimal doc = function
  | [] -> []
  | [ x ] -> [ x ]
  | x :: (y :: _ as rest) ->
      if y <= (Tree.subtree_ends doc).(x) then filter_minimal doc rest
      else x :: filter_minimal doc rest

let indexed_lookup_eager ?budget doc postings =
  let k = Array.length postings in
  (* xkscost: unticked k-bounded: one emptiness test per keyword list *)
  if k = 0 || Array.exists (fun s -> Array.length s = 0) postings then []
  else begin
    let s1 = postings.(Probe.smallest_list_index postings) in
    let ends = Tree.subtree_ends doc in
    let cursors = Probe.cursors postings in
    (* The eager step.  A new candidate [c] contains its occurrence,
       which comes after every earlier one, so [c] cannot end inside
       the subtree of the last kept candidate [last]: it is an
       ancestor-or-self of [last], a proper descendant of it, or after
       its subtree.  So [last] is final once a candidate lands after its
       subtree, and one pass keeps the minimal candidates in document
       order, with no buffer and no sort.  [fc] cannot return -1 here
       since no list is empty. *)
    let acc = ref [] and last = ref (-1) in
    Array.iter
      (fun v ->
        Xks_trace.Trace.incr Xks_trace.Trace.Nodes_visited;
        Xks_robust.Budget.tick_opt budget 1;
        let c = Probe.fc doc postings cursors v in
        if !last < 0 then last := c
        else if c > ends.(!last) then begin
          acc := !last :: !acc;
          last := c
        end
        else if c > !last then last := c (* [c] lies strictly inside [last] *))
      s1;
    List.rev (!last :: !acc)
  end
