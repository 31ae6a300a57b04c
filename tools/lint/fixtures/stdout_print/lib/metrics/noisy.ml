(* Fixture for the stdout-print rule (library code only). *)

let bad_endline () = print_endline "hi"
let bad_printf n = Printf.printf "%d\n" n
let bad_format () = Format.printf "x"
let bad_string () = print_string "y"

(* Explicit formatters and stderr: not flagged. *)
let ok_fprintf fmt = Format.fprintf fmt "x"
let ok_stderr () = prerr_endline "err"

(* xkslint: allow stdout-print deliberate console output *)
let allowed () = print_newline ()
