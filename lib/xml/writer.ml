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

(* Render the subtree at [id] after whatever [buf] already holds: every
   line but the subtree's first starts with a newline. *)
let render_node buf ~indent t id =
  let first = Buffer.length buf and ends = Tree.subtree_ends t in
  let pad depth =
    if indent > 0 then begin
      if Buffer.length buf > first then Buffer.add_char buf '\n';
      for _ = 1 to depth * indent do
        Buffer.add_char buf ' '
      done
    end
  in
  let rec go depth id =
    pad depth;
    let name = Tree.label_name t id and text = Tree.text t id in
    let has_children = ends.(id) > id in
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    add_attrs buf (Tree.attrs t id);
    if text = "" && not has_children then Buffer.add_string buf "/>"
    else begin
      Buffer.add_char buf '>';
      if text <> "" then begin
        if has_children then pad (depth + 1);
        escape buf ~attr:false text
      end;
      if has_children then begin
        Tree.fold_children (fun () c -> go (depth + 1) c) () t id;
        pad depth
      end;
      Buffer.add_string buf "</";
      Buffer.add_string buf name;
      Buffer.add_char buf '>'
    end
  in
  go 0 id

let subtree_to_string ?(indent = 2) t id =
  let buf = Buffer.create 1024 in
  render_node buf ~indent t id;
  Buffer.contents buf

let render ?(declaration = true) ?(indent = 2) t =
  let buf = Buffer.create 4096 in
  if declaration then begin
    Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    if indent > 0 then Buffer.add_char buf '\n'
  end;
  render_node buf ~indent t 0;
  if indent > 0 then Buffer.add_char buf '\n';
  buf

let to_string ?declaration ?indent t = Buffer.contents (render ?declaration ?indent t)

let to_file ?declaration ?indent path t =
  let buf = render ?declaration ?indent t in
  let oc = open_out_bin path in
  let finally () = close_out_noerr oc in
  Fun.protect ~finally (fun () -> Buffer.output_buffer oc buf)
