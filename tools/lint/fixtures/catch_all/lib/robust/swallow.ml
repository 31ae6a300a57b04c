(* Fixture for the catch-all rule. *)

let swallow f = try f () with _ -> None
let swallow_alias f = try f () with _ as e -> Some e
let swallow_or f = try f () with Not_found | _ -> None

(* Specific handlers: not flagged. *)
let ok f = try f () with Not_found -> None

(* xkslint: allow catch-all best-effort probe, any failure means None *)
let allowed f = try f () with _ -> None
