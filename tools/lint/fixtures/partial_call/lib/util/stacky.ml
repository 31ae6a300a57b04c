(* Fixture for the partial-call rule. *)

let first l = List.hd l
let rest l = List.tl l
let second l = List.nth l 1
let force o = Option.get o
let lookup tbl key = Hashtbl.find tbl key

(* Total alternatives: not flagged. *)
let ok_lookup tbl key = Hashtbl.find_opt tbl key
let ok_first = function x :: _ -> Some x | [] -> None

(* xkslint: allow partial-call callers pass a non-empty list *)
let allowed l = List.hd l
