exception Error of { line : int; col : int; message : string }

(* The DOM view is a fold over the SAX event stream: each start tag
   opens a node of the tree draft, each end tag finishes it with its
   trimmed text. *)

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* The slice [s.[off .. off + len - 1]] without surrounding whitespace,
   copied out of the slice (whose string Sax may overwrite). *)
let trimmed s off len =
  let i = ref off and j = ref (off + len - 1) in
  while !i <= !j && is_space (String.unsafe_get s !i) do
    incr i
  done;
  while !j >= !i && is_space (String.unsafe_get s !j) do
    decr j
  done;
  if !j < !i then "" else String.sub s !i (!j - !i + 1)

let tree_of_events feed =
  let d = Tree.draft () in
  let on_end _name s off len = Tree.finish d (trimmed s off len) in
  feed (Sax.handler ~on_start:(Tree.start d) ~on_end ());
  Tree.freeze d

let translate f =
  try f () with
  | Sax.Error { line; col; message } -> raise (Error { line; col; message })

let parse_string ?limits src =
  translate (fun () -> tree_of_events (fun h -> Sax.parse_string ?limits h src))

let parse_file ?limits path =
  translate (fun () -> tree_of_events (fun h -> Sax.parse_file ?limits h path))

let error_to_string = function
  | Error { line; col; message } ->
      Some
        (Printf.sprintf "XML parse error at line %d, column %d: %s" line col
           message)
  | _ -> None
