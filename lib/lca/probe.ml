module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey
module Bsearch = Xks_util.Bsearch

let ancestor_at doc (n : Tree.node) d =
  let depth = Dewey.depth n.dewey in
  if d < 0 || d > depth then invalid_arg "Probe.ancestor_at";
  let cur = ref n in
  (* xkscost: unticked depth-bounded: one parent step per level above d; callers tick per candidate *)
  for _ = d + 1 to depth do
    cur := Tree.node doc !cur.parent
  done;
  !cur

(* Interval form of the closest-occurrence probe: with [l] the last
   occurrence at or before [x] and [r] the first after it, an
   ancestor-or-self [a] of [x] holds the list iff [l >= a.id] or
   [r <= a.subtree_end].  The sentinels [-1] and [max_int] stand for a
   missing neighbour and never satisfy their test.  Ancestors holding
   list i form a chain from the root, so walking up from where list
   i - 1 stopped reaches the deepest ancestor holding lists 0..i; the
   root holds every non-empty list, so the walk always stops. *)
let fc doc postings (x : Tree.node) =
  let k = Array.length postings in
  let cur = ref x and i = ref 0 and empty = ref false in
  (* xkscost: unticked k-bounded: one binary search per keyword list; every caller ticks per candidate before probing *)
  while !i < k && not !empty do
    let p = postings.(!i) in
    let n = Array.length p in
    if n = 0 then empty := true
    else begin
      let j = Bsearch.upper_bound p x.id in
      let l = if j > 0 then p.(j - 1) else -1 in
      let r = if j < n then p.(j) else max_int in
      (* xkscost: unticked depth-bounded: parent steps above x, at most depth x over all lists; the caller ticks per candidate *)
      while l < !cur.id && r > !cur.subtree_end do
        cur := Tree.node doc !cur.parent
      done
    end;
    incr i
  done;
  if !empty then None else Some !cur

let smallest_list_index postings =
  if Array.length postings = 0 then invalid_arg "Probe.smallest_list_index";
  let best = ref 0 in
  (* xkscost: unticked k-bounded: one length read per keyword list *)
  for i = 1 to Array.length postings - 1 do
    if Array.length postings.(i) < Array.length postings.(!best) then best := i
  done;
  !best
