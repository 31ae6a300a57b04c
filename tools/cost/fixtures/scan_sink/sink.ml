(* A hot sink of the Indexed Stack scan: [emit] runs once per popped
   ELCA, so its body is a loop body like a [List] or [Array] callback,
   and a posting read inside it that reaches no Budget charge must be
   flagged. *)

(* xkscost: hot *)
let hits doc postings =
  let total = ref 0 in
  ignore
    (Indexed_stack.scan
       ~emit:(fun u _ _ -> total := !total + Array.length postings.(u))
       ~stop:(fun () -> false)
       doc postings);
  !total
