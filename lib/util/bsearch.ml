let lower_bound a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound a x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

let upper_bound_back a ~hi x =
  if hi < 0 || hi > Array.length a then invalid_arg "Bsearch.upper_bound_back";
  (* Gallop: after the loop every element from [hi - step / 2] up is
     [> x], and [hi - step] is before the array or holds an element
     [<= x]; the answer lies between the two. *)
  let step = ref 1 in
  while !step <= hi && a.(hi - !step) > x do
    step := 2 * !step
  done;
  let lo = ref (max 0 (hi - !step + 1)) and up = ref (hi - (!step / 2)) in
  while !lo < !up do
    let mid = (!lo + !up) / 2 in
    if a.(mid) <= x then lo := mid + 1 else up := mid
  done;
  !lo

let right_match a x =
  let i = lower_bound a x in
  if i = Array.length a then None else Some a.(i)

let mem a x =
  let i = lower_bound a x in
  i < Array.length a && a.(i) = x

let count_in_range a ~lo ~hi =
  if hi < lo then 0 else upper_bound a hi - lower_bound a lo
