(* One column per node fact, indexed by preorder id.  Children, Dewey
   codes and depths are not stored: the parent, subtree-end and rank
   columns imply them. *)
type t = {
  label_table : Label.table;
  parents : int array;
  ends : int array;
  label_ids : int array;
  ranks : int array;  (* position among the parent's children *)
  texts : string array;
  attrs : (string * string) list array;
}

type builder = {
  b_label : string;
  b_attrs : (string * string) list;
  b_text : string;
  b_children : builder list;
}

let elem ?(attrs = []) ?(text = "") label children =
  { b_label = label; b_attrs = attrs; b_text = text; b_children = children }

(* A document under construction: the columns with spare room at the
   end.  The parent column doubles as the stack of open elements:
   [open_id] is the innermost one and its parent the next. *)
type draft = {
  d_table : Label.table;
  mutable count : int;  (* ids given out so far *)
  mutable open_id : int;  (* -1 when no element is open *)
  mutable closed : int;  (* the element finished last, -1 before any *)
  mutable d_parents : int array;
  mutable d_ends : int array;
  mutable d_labels : int array;
  mutable d_ranks : int array;
  mutable d_texts : string array;
  mutable d_attrs : (string * string) list array;
}

(* Room for [n] nodes; [start] doubles the columns when they fill. *)
let draft_of_size n =
  { d_table = Label.create_table (); count = 0; open_id = -1; closed = -1;
    d_parents = Array.make n 0; d_ends = Array.make n 0;
    d_labels = Array.make n 0; d_ranks = Array.make n 0;
    d_texts = Array.make n ""; d_attrs = Array.make n [] }

let draft () = draft_of_size 64

let grown a x =
  let n = Array.length a in
  let b = Array.make (2 * n) x in
  Array.blit a 0 b 0 n;
  b

let start d label attrs =
  let id = d.count and parent = d.open_id in
  if parent < 0 && id > 0 then invalid_arg "Tree.start: a second root";
  if id = Array.length d.d_parents then begin
    d.d_parents <- grown d.d_parents 0;
    d.d_ends <- grown d.d_ends 0;
    d.d_labels <- grown d.d_labels 0;
    d.d_ranks <- grown d.d_ranks 0;
    d.d_texts <- grown d.d_texts "";
    d.d_attrs <- grown d.d_attrs []
  end;
  (* The element finished last is the previous sibling, if it shares
     the parent; otherwise this is a first child. *)
  let c = d.closed in
  d.d_ranks.(id) <-
    (if c >= 0 && d.d_parents.(c) = parent then d.d_ranks.(c) + 1 else 0);
  d.d_parents.(id) <- parent;
  (* Interned at the start tag, so label ids follow document order. *)
  d.d_labels.(id) <- Label.intern d.d_table label;
  d.d_attrs.(id) <- attrs;
  d.count <- id + 1;
  d.open_id <- id

let finish d text =
  let id = d.open_id in
  if id < 0 then invalid_arg "Tree.finish: no open element";
  d.d_ends.(id) <- d.count - 1;
  d.d_texts.(id) <- text;
  d.closed <- id;
  d.open_id <- d.d_parents.(id)

let freeze d =
  if d.count = 0 || d.open_id >= 0 then
    invalid_arg "Tree.freeze: the root is not finished";
  let n = d.count in
  let fit a = if Array.length a = n then a else Array.sub a 0 n in
  { label_table = d.d_table; parents = fit d.d_parents; ends = fit d.d_ends;
    label_ids = fit d.d_labels; ranks = fit d.d_ranks;
    texts = fit d.d_texts; attrs = fit d.d_attrs }

(* A builder's size is known, so its columns are made at their final
   size: no doubling garbage and no copy at [freeze]. *)
let build b =
  let rec count b = List.fold_left (fun n c -> n + count c) 1 b.b_children in
  let d = draft_of_size (count b) in
  let rec go b =
    start d b.b_label b.b_attrs;
    List.iter go b.b_children;
    finish d b.b_text
  in
  go b;
  freeze d

let size t = Array.length t.parents
let labels t = t.label_table
let parents t = t.parents
let subtree_ends t = t.ends
let label_ids t = t.label_ids
let label_name t id = Label.name t.label_table t.label_ids.(id)
let text t id = t.texts.(id)
let attrs t id = t.attrs.(id)

(* Top level, so a fold allocates no closure of its own. *)
let rec fold_from f acc ends last c =
  if c > last then acc else fold_from f (f acc c) ends last (ends.(c) + 1)

let fold_children f init t id = fold_from f init t.ends t.ends.(id) (id + 1)

let depth t id =
  let n = ref 0 and id = ref id in
  while !id <> 0 do
    id := t.parents.(!id);
    incr n
  done;
  !n

let dewey t id =
  let code = Array.make (depth t id) 0 and id = ref id in
  for i = Array.length code - 1 downto 0 do
    code.(i) <- t.ranks.(!id);
    id := t.parents.(!id)
  done;
  Dewey.of_array code

(* Down from the root: the first child is the next id, and each later
   sibling starts one past the subtree of the one before. *)
let find_by_dewey t d =
  let rec child id c rank =
    if c > t.ends.(id) then None
    else if rank = 0 then Some c
    else child id (t.ends.(c) + 1) (rank - 1)
  in
  let rec go id i =
    if i = Dewey.depth d then Some id
    else
      match child id (id + 1) (Dewey.component d i) with
      | Some c -> go c (i + 1)
      | None -> None
  in
  go 0 0

let content_words t id =
  let buf = ref [] in
  let add s = Tokenizer.iter_words (fun w -> buf := w :: !buf) s in
  add (label_name t id);
  add t.texts.(id);
  List.iter
    (fun (k, v) ->
      add k;
      add v)
    t.attrs.(id);
  List.sort_uniq String.compare !buf

let node_matches t id w = List.mem w (content_words t id)

(* The builder of the subtree at [id].  [edit p kids] gives the children
   of node [p] from its children's builders, each paired with its id. *)
let rec builder_at t edit id =
  let kids =
    fold_children (fun acc c -> (c, builder_at t edit c) :: acc) [] t id
  in
  { b_label = label_name t id; b_attrs = t.attrs.(id); b_text = t.texts.(id);
    b_children = edit id (List.rev kids) }

let to_builder t = builder_at t (fun _ kids -> List.map snd kids) 0

let insert_at l pos x =
  if pos < 0 || pos > List.length l then invalid_arg "Tree.insert_subtree: pos";
  let rec go i = function
    | rest when i = pos -> x :: rest
    | [] -> invalid_arg "Tree.insert_subtree: pos"
    | y :: rest -> y :: go (i + 1) rest
  in
  go 0 l

(* Edits rebuild via builders: documents are small enough for the
   axiomatic checkers these support, and rebuilding keeps ids and ranks
   consistent by construction. *)
let insert_subtree t ~parent_id ~pos b =
  if parent_id < 0 || parent_id >= size t then
    invalid_arg "Tree.insert_subtree: parent_id";
  build
    (builder_at t
       (fun p kids ->
         let kids = List.map snd kids in
         if p = parent_id then insert_at kids pos b else kids)
       0)

let delete_subtree t ~id =
  if id <= 0 || id >= size t then invalid_arg "Tree.delete_subtree: id";
  build
    (builder_at t
       (fun _ kids ->
         List.filter_map (fun (c, b) -> if c = id then None else Some b) kids)
       0)
