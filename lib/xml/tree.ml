type node = {
  id : int;
  label : Label.t;
  text : string;
  attrs : (string * string) list;
  dewey : Dewey.t;
  parent : int;
  children : node array;
  subtree_end : int;
}

(* [parents], [ends] and [label_ids] repeat three fields of every node
   record as flat arrays indexed by id: the LCA probes and node-info
   construction walk them on every query, and an int array keeps
   eight ids per cache line where the 72-byte records keep one. *)
type t = {
  root_node : node;
  nodes : node array;
  label_table : Label.table;
  parents : int array;
  ends : int array;
  label_ids : int array;
}

type builder = {
  b_label : string;
  b_attrs : (string * string) list;
  b_text : string;
  b_children : builder list;
}

let elem ?(attrs = []) ?(text = "") label children =
  { b_label = label; b_attrs = attrs; b_text = text; b_children = children }

(* An open element: what its start tag fixed, until its end tag. *)
type frame = {
  f_id : int;
  f_label : Label.t;
  f_parent : int;
  f_dewey : Dewey.t;
  f_attrs : (string * string) list;
  f_kids : int;  (* where its finished children start in [kids] *)
}

(* A document under construction.  [start] numbers the element and
   pushes a frame with what its start tag fixes (label, parent, Dewey
   code, attributes); [finish] pops it into the node record, whose
   children are the nodes finished on [kids] since its start. *)
type draft = {
  d_table : Label.table;
  mutable count : int;  (* ids given out so far *)
  mutable frames : frame list;  (* the open elements, innermost first *)
  mutable kids : node array;  (* finished children of the open elements *)
  mutable n_kids : int;
}

let placeholder =
  { id = -1; label = -1; text = ""; attrs = []; dewey = Dewey.root; parent = -1;
    children = [||]; subtree_end = -1 }

let draft () =
  { d_table = Label.create_table (); count = 0; frames = [];
    kids = Array.make 16 placeholder; n_kids = 0 }

let start d label attrs =
  let id = d.count in
  (* Interned at the start tag, so label ids follow document order. *)
  let label = Label.intern d.d_table label in
  let frame =
    match d.frames with
    | [] ->
        if id > 0 then invalid_arg "Tree.start: a second root";
        { f_id = id; f_label = label; f_parent = -1; f_dewey = Dewey.root;
          f_attrs = attrs; f_kids = 0 }
    | p :: _ ->
        { f_id = id; f_label = label; f_parent = p.f_id;
          f_dewey = Dewey.child p.f_dewey (d.n_kids - p.f_kids);
          f_attrs = attrs; f_kids = d.n_kids }
  in
  d.count <- id + 1;
  d.frames <- frame :: d.frames

let finish d text =
  match d.frames with
  | [] -> invalid_arg "Tree.finish: no open element"
  | f :: rest ->
      let first = f.f_kids in
      let node =
        {
          id = f.f_id;
          label = f.f_label;
          text;
          attrs = f.f_attrs;
          dewey = f.f_dewey;
          parent = f.f_parent;
          children = Array.sub d.kids first (d.n_kids - first);
          subtree_end = d.count - 1;
        }
      in
      d.frames <- rest;
      if first = Array.length d.kids then begin
        let grown = Array.make (2 * first) placeholder in
        Array.blit d.kids 0 grown 0 first;
        d.kids <- grown
      end;
      d.kids.(first) <- node;
      d.n_kids <- first + 1

(* The node arrays and the flat arrays, filled in one preorder walk. *)
let freeze d =
  (match d.frames with
  | [] when d.n_kids = 1 -> ()
  | _ -> invalid_arg "Tree.freeze: the root is not finished");
  let root_node = d.kids.(0) in
  let n = d.count in
  let nodes = Array.make n root_node in
  let parents = Array.make n (-1) and ends = Array.make n 0 in
  let label_ids = Array.make n 0 in
  let rec fill (n : node) =
    nodes.(n.id) <- n;
    parents.(n.id) <- n.parent;
    ends.(n.id) <- n.subtree_end;
    label_ids.(n.id) <- n.label;
    Array.iter fill n.children
  in
  fill root_node;
  { root_node; nodes; label_table = d.d_table; parents; ends; label_ids }

let build b =
  let d = draft () in
  let rec go b =
    start d b.b_label b.b_attrs;
    List.iter go b.b_children;
    finish d b.b_text
  in
  go b;
  freeze d

let root t = t.root_node
let size t = Array.length t.nodes

let node t id =
  if id < 0 || id >= Array.length t.nodes then invalid_arg "Tree.node";
  t.nodes.(id)

let labels t = t.label_table
let parents t = t.parents
let subtree_ends t = t.ends
let label_ids t = t.label_ids
let label_name t n = Label.name t.label_table n.label

let find_by_dewey t d =
  let rec go n i =
    if i = Dewey.depth d then Some n
    else
      let c = Dewey.component d i in
      if c < Array.length n.children then go n.children.(c) (i + 1) else None
  in
  go t.root_node 0

let parent_node t n = if n.parent < 0 then None else Some t.nodes.(n.parent)
let iter f t = Array.iter f t.nodes
let fold f init t = Array.fold_left f init t.nodes

let in_subtree ~root n = n.id >= root.id && n.id <= root.subtree_end

let content_words t n =
  let buf = ref [] in
  let add s = Tokenizer.iter_words (fun w -> buf := w :: !buf) s in
  add (label_name t n);
  add n.text;
  List.iter
    (fun (k, v) ->
      add k;
      add v)
    n.attrs;
  List.sort_uniq String.compare !buf

let node_matches t n w = List.mem w (content_words t n)

let rec builder_of_node t n =
  {
    b_label = label_name t n;
    b_attrs = n.attrs;
    b_text = n.text;
    b_children = Array.to_list (Array.map (builder_of_node t) n.children);
  }

let to_builder t = builder_of_node t t.root_node

let insert_at l pos x =
  if pos < 0 || pos > List.length l then invalid_arg "Tree.insert_subtree: pos";
  let rec go i = function
    | rest when i = pos -> x :: rest
    | [] -> invalid_arg "Tree.insert_subtree: pos"
    | y :: rest -> y :: go (i + 1) rest
  in
  go 0 l

let insert_subtree t ~parent_id ~pos b =
  if parent_id < 0 || parent_id >= size t then
    invalid_arg "Tree.insert_subtree: parent_id";
  (* Rebuild via builders: documents are small enough for the axiomatic
     checkers this supports, and rebuilding keeps ids and Dewey codes
     consistent by construction. *)
  let rec go n =
    let children = Array.to_list (Array.map go n.children) in
    let children =
      if n.id = parent_id then insert_at children pos b else children
    in
    {
      b_label = label_name t n;
      b_attrs = n.attrs;
      b_text = n.text;
      b_children = children;
    }
  in
  build (go t.root_node)

let delete_subtree t ~id =
  if id <= 0 || id >= size t then invalid_arg "Tree.delete_subtree: id";
  let rec go n =
    let children =
      Array.to_list n.children
      |> List.filter (fun (c : node) -> c.id <> id)
      |> List.map go
    in
    {
      b_label = label_name t n;
      b_attrs = n.attrs;
      b_text = n.text;
      b_children = children;
    }
  in
  build (go t.root_node)
