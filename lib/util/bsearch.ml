(* Every search is pinned to [int]: a polymorphic [<] on array elements
   compiles to a [compare_val] call per probe, and these run once per
   posting probe on the query path.  [dune runtest] checks the object
   file for such calls (see test/dune).  The gallops clamp with
   [Int.min]/[Int.max]: [Stdlib.min]/[max] are polymorphic, so each
   clamp would be a call into the runtime's comparison, one the object
   check cannot see (it sits inside Stdlib). *)

let lower_bound (a : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound (a : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound_back (a : int array) ~hi (x : int) =
  if hi < 0 || hi > Array.length a then invalid_arg "Bsearch.upper_bound_back";
  (* Gallop: after the loop every element from [hi - step / 2] up is
     [> x], and [hi - step] is before the array or holds an element
     [<= x]; the answer lies between the two. *)
  let step = ref 1 in
  while !step <= hi && a.(hi - !step) > x do
    step := 2 * !step
  done;
  let lo = ref (Int.max 0 (hi - !step + 1)) and up = ref (hi - (!step / 2)) in
  while !lo < !up do
    let mid = (!lo + !up) / 2 in
    if a.(mid) <= x then lo := mid + 1 else up := mid
  done;
  !lo

let upper_bound_from (a : int array) ~lo (x : int) =
  let n = Array.length a in
  if lo < 0 || lo > n then invalid_arg "Bsearch.upper_bound_from";
  if lo > 0 && a.(lo - 1) > x then upper_bound_back a ~hi:lo x
  else begin
    (* Every element before [lo] is [<= x].  Gallop forward: after the
       loop [a.(lo + step / 2 - 1)] is [<= x] (or [step = 1]) and
       [lo + step - 1] is past the end or holds an element [> x]. *)
    let step = ref 1 in
    while lo + !step - 1 < n && a.(lo + !step - 1) <= x do
      step := 2 * !step
    done;
    let l = ref (lo + (!step / 2)) and h = ref (Int.min n (lo + !step - 1)) in
    while !l < !h do
      let mid = (!l + !h) / 2 in
      if a.(mid) <= x then l := mid + 1 else h := mid
    done;
    !l
  end

let right_match a x =
  let i = lower_bound a x in
  if i = Array.length a then None else Some a.(i)

let mem a x =
  let i = lower_bound a x in
  i < Array.length a && a.(i) = x
