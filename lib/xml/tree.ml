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

let count_builder b =
  let rec loop acc b = List.fold_left loop (acc + 1) b.b_children in
  loop 0 b

let build b =
  let label_table = Label.create_table () in
  let n = count_builder b in
  let nodes = Array.make n None in
  let next = ref 0 in
  let rec go b dewey parent =
    let id = !next in
    incr next;
    (* Intern before recursing so label ids follow document order. *)
    let label = Label.intern label_table b.b_label in
    let children =
      Array.of_list
        (List.mapi (fun i c -> go c (Dewey.child dewey i) id) b.b_children)
    in
    let node =
      {
        id;
        label;
        text = b.b_text;
        attrs = b.b_attrs;
        dewey;
        parent;
        children;
        subtree_end = !next - 1;
      }
    in
    nodes.(id) <- Some node;
    node
  in
  let root_node = go b Dewey.root (-1) in
  let nodes =
    Array.map
      (function Some n -> n | None -> assert false (* all slots filled *))
      nodes
  in
  {
    root_node;
    nodes;
    label_table;
    parents = Array.map (fun n -> n.parent) nodes;
    ends = Array.map (fun n -> n.subtree_end) nodes;
    label_ids = Array.map (fun n -> n.label) nodes;
  }

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
