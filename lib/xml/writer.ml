let needs_escape ~attr = function
  | '&' | '<' | '>' -> true
  | '"' -> attr
  | _ -> false

(* The entity of a byte [needs_escape] accepts. *)
let entity = function
  | '&' -> "&amp;"
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | _ -> "&quot;"

(* Runs that need no escaping are copied with one [add_substring]. *)
let escape buf ~attr s =
  let n = String.length s in
  let rec go start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else if needs_escape ~attr (String.unsafe_get s i) then begin
      Buffer.add_substring buf s start (i - start);
      Buffer.add_string buf (entity (String.unsafe_get s i));
      go (i + 1) (i + 1)
    end
    else go start (i + 1)
  in
  go 0 0

let escape_text s =
  let buf = Buffer.create (String.length s) in
  escape buf ~attr:false s;
  Buffer.contents buf

let escape_attr s =
  let buf = Buffer.create (String.length s) in
  escape buf ~attr:true s;
  Buffer.contents buf

let rec add_attrs buf = function
  | [] -> ()
  | (k, v) :: rest ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      escape buf ~attr:true v;
      Buffer.add_char buf '"';
      add_attrs buf rest

(* Render the subtree at [n] after whatever [buf] already holds: every
   line but the subtree's first starts with a newline. *)
let render_node buf ~indent t (n : Tree.node) =
  let first = Buffer.length buf in
  let pad depth =
    if indent > 0 then begin
      if Buffer.length buf > first then Buffer.add_char buf '\n';
      for _ = 1 to depth * indent do
        Buffer.add_char buf ' '
      done
    end
  in
  let rec go depth (n : Tree.node) =
    pad depth;
    let name = Tree.label_name t n in
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    add_attrs buf n.attrs;
    if n.text = "" && Array.length n.children = 0 then
      Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      if n.text <> "" then begin
        if Array.length n.children > 0 then pad (depth + 1);
        escape buf ~attr:false n.text
      end;
      for i = 0 to Array.length n.children - 1 do
        go (depth + 1) n.children.(i)
      done;
      if Array.length n.children > 0 then pad depth;
      Buffer.add_string buf "</";
      Buffer.add_string buf name;
      Buffer.add_char buf '>'
    end
  in
  go 0 n

let subtree_to_string ?(indent = 2) t n =
  let buf = Buffer.create 1024 in
  render_node buf ~indent t n;
  Buffer.contents buf

let render ?(declaration = true) ?(indent = 2) t =
  let buf = Buffer.create 4096 in
  if declaration then begin
    Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    if indent > 0 then Buffer.add_char buf '\n'
  end;
  render_node buf ~indent t (Tree.root t);
  if indent > 0 then Buffer.add_char buf '\n';
  buf

let to_string ?declaration ?indent t = Buffer.contents (render ?declaration ?indent t)

let to_file ?declaration ?indent path t =
  let buf = render ?declaration ?indent t in
  let oc = open_out_bin path in
  let finally () = close_out_noerr oc in
  Fun.protect ~finally (fun () -> Buffer.output_buffer oc buf)
