(* Fixture for the module-state rule (library code only). *)

let bad_counter = ref 0
let bad_table : (string, int) Hashtbl.t = Hashtbl.create 16
let bad_atomic = Atomic.make 0

let bad_nested =
  let q = Queue.create () in
  Queue.add 1 q;
  q

module Inner = struct
  let bad_inner = Buffer.create 64
end

(* Per-call state: not flagged. *)
let ok_fresh () =
  let seen = Hashtbl.create 8 in
  Hashtbl.replace seen "x" 1;
  Hashtbl.length seen

let ok_closure () = ref 0

(* xkslint: allow module-state written once at init, read-only afterwards *)
let allowed : int list ref = ref []
