module Tree = Xks_xml.Tree
module Bsearch = Xks_util.Bsearch

let ancestor_at doc id d =
  let depth = Tree.depth doc id in
  if d < 0 || d > depth then invalid_arg "Probe.ancestor_at";
  let parents = Tree.parents doc in
  let cur = ref id in
  (* xkscost: unticked depth-bounded: one parent step per level above d; callers tick per candidate *)
  for _ = d + 1 to depth do
    cur := parents.(!cur)
  done;
  !cur

let cursors postings = Array.make (Array.length postings) 0

(* Interval form of the closest-occurrence probe: with [l] the last
   occurrence at or before [x] and [r] the first after it, an
   ancestor-or-self [a] of [x] holds the list iff [l >= a] or
   [r <= end a].  The sentinels [-1] and [max_int] stand for a missing
   neighbour and never satisfy their test.  Ancestors holding list i
   form a chain from the root, so walking up from where list i - 1
   stopped reaches the deepest ancestor holding lists 0..i; the root
   holds every non-empty list, so the walk always stops. *)
let fc doc postings cursors x =
  let parents = Tree.parents doc and ends = Tree.subtree_ends doc in
  let k = Array.length postings in
  let cur = ref x and i = ref 0 in
  (* xkscost: unticked k-bounded: one galloping search per keyword list; every caller ticks per candidate before probing *)
  while !i < k && !cur >= 0 do
    let p = postings.(!i) in
    let n = Array.length p in
    if n = 0 then cur := -1
    else begin
      let c = cursors.(!i) in
      let j =
        if c < n && p.(c) <= x then
          if c + 1 = n || p.(c + 1) > x then c + 1
          else Bsearch.upper_bound_from p ~lo:c x
        else if c = 0 || p.(c - 1) <= x then c
        else Bsearch.upper_bound_from p ~lo:c x
      in
      cursors.(!i) <- j;
      let l = if j > 0 then p.(j - 1) else -1 in
      let r = if j < n then p.(j) else max_int in
      (* xkscost: unticked depth-bounded: parent steps above x, at most depth x over all lists; the caller ticks per candidate *)
      while l < !cur && r > ends.(!cur) do
        cur := parents.(!cur)
      done
    end;
    incr i
  done;
  !cur

let smallest_list_index postings =
  if Array.length postings = 0 then invalid_arg "Probe.smallest_list_index";
  let best = ref 0 in
  (* xkscost: unticked k-bounded: one length read per keyword list *)
  for i = 1 to Array.length postings - 1 do
    if Array.length postings.(i) < Array.length postings.(!best) then best := i
  done;
  !best
