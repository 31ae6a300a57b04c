module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey

type t = { root : int; members : int array }

(* Sorted in place (a single pass when the ids come in document
   order): the member array is the only allocation. *)
let of_ids ~root ids =
  Xks_util.Int_vec.sort_uniq ids;
  let members = Xks_util.Int_vec.to_array ids in
  if not (Xks_util.Bsearch.mem members root) then
    invalid_arg "Fragment.of_ids: the root is not among the ids";
  { root; members }

let make ~root ~members =
  Xks_util.Scratch.with_ints (fun buf ->
      Xks_util.Int_vec.push buf root;
      List.iter (Xks_util.Int_vec.push buf) members;
      of_ids ~root buf)

let size t = Array.length t.members
let mem t id = Xks_util.Bsearch.mem t.members id
let equal a b =
  let n = Array.length a.members in
  a.root = b.root
  && n = Array.length b.members
  &&
  let rec same i = i = n || (a.members.(i) = b.members.(i) && same (i + 1)) in
  same 0
let members_list t = Array.to_list t.members

let diff_count a b =
  Array.fold_left (fun acc id -> if mem b id then acc else acc + 1) 0 a.members

(* Children of [id] within the fragment, in document order: members
   strictly inside [id]'s range whose parent is [id]. *)
let fragment_children doc t id =
  let parents = Tree.parents doc and last = (Tree.subtree_ends doc).(id) in
  let lo = Xks_util.Bsearch.lower_bound t.members (id + 1) in
  let rec collect i acc =
    if i >= Array.length t.members then acc
    else
      let m = t.members.(i) in
      if m > last then acc
      else collect (i + 1) (if parents.(m) = id then m :: acc else acc)
  in
  List.rev (collect lo [])

let render doc t =
  let buf = Buffer.create 256 in
  let rec go depth id =
    let text = Tree.text doc id in
    Buffer.add_string buf (String.make (2 * depth) ' ');
    Buffer.add_string buf (Dewey.to_string (Tree.dewey doc id));
    Buffer.add_string buf " (";
    Buffer.add_string buf (Tree.label_name doc id);
    Buffer.add_char buf ')';
    if text <> "" then begin
      Buffer.add_string buf " '";
      Buffer.add_string buf text;
      Buffer.add_char buf '\''
    end;
    Buffer.add_char buf '\n';
    List.iter (go (depth + 1)) (fragment_children doc t id)
  in
  go 0 t.root;
  Buffer.contents buf

let to_xml doc t =
  let buf = Buffer.create 256 in
  let rec go depth id =
    let name = Tree.label_name doc id and text = Tree.text doc id in
    let pad = String.make (2 * depth) ' ' in
    Buffer.add_string buf pad;
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (Xks_xml.Writer.escape_attr v);
        Buffer.add_char buf '"')
      (Tree.attrs doc id);
    let children = fragment_children doc t id in
    if text = "" && children = [] then Buffer.add_string buf "/>\n"
    else begin
      Buffer.add_string buf ">";
      if text <> "" then Buffer.add_string buf (Xks_xml.Writer.escape_text text);
      if children <> [] then begin
        Buffer.add_char buf '\n';
        List.iter (go (depth + 1)) children;
        Buffer.add_string buf pad
      end;
      Buffer.add_string buf "</";
      Buffer.add_string buf name;
      Buffer.add_string buf ">\n"
    end
  in
  go 0 t.root;
  Buffer.contents buf

let pp doc fmt t = Format.pp_print_string fmt (render doc t)
