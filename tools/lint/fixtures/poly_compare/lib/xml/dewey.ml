(* Fixture for the poly-compare rule: this basename (dewey.ml) marks a
   comparator module.  Expected findings are pinned by line number in
   expected/poly_compare.out. *)
type t = int array

let bad_equal (a : t) (b : t) = a = b
let bad_compare (a : t) (b : t) = compare a b
let bad_min a b = min a b
let bad_phys (a : t) (b : t) = a == b
let bad_less (a : t) (b : t) = a < b

(* Comparing against a literal pins the type: not flagged. *)
let ok_literal n = n = 0

(* Module-qualified comparators: not flagged. *)
let ok_qualified a b = Int.compare a b

(* xkslint: allow poly-compare vetted structural inequality *)
let allowed (a : t) (b : t) = a <> b
