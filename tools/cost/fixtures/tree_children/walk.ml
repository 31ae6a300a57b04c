(* A hot walk over a node's children: the [Tree.fold_children] callback
   is a loop body like a [List] or [Array] callback, so a posting sweep
   inside it that reaches no Budget charge must be flagged. *)

(* xkscost: hot *)
let child_hits doc postings id =
  Tree.fold_children (fun acc c -> acc + Array.length postings.(c)) 0 doc id
