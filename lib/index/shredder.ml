module Tree = Xks_xml.Tree
module Dewey = Xks_xml.Dewey
module Tokenizer = Xks_xml.Tokenizer
module Label = Xks_xml.Label

type label_row = { label_name : string; label_id : int }

type element_row = {
  e_label : string;
  e_dewey : Dewey.t;
  e_level : int;
  e_label_path : int list;
  e_content_feature : Cid.t;
}

type value_row = {
  v_label : string;
  v_dewey : Dewey.t;
  v_id : int;
  v_attribute : string;
  v_keyword : string;
}

type tables = {
  labels : label_row list;
  elements : element_row array;
  values : value_row list;
}

(* One row per distinct (node, keyword), in document order: label and
   text words first, then each attribute's name and value words. *)
let node_values doc (n : Tree.node) acc =
  let name = Tree.label_name doc n in
  let acc = ref acc and seen = Hashtbl.create 8 in
  let add_once attribute w =
    if not (Hashtbl.mem seen w) then begin
      Hashtbl.add seen w ();
      acc :=
        {
          v_label = name;
          v_dewey = n.dewey;
          v_id = n.id;
          v_attribute = attribute;
          v_keyword = w;
        }
        :: !acc
    end
  in
  Tokenizer.iter_words (add_once "") name;
  Tokenizer.iter_words (add_once "") n.text;
  List.iter
    (fun (k, v) ->
      Tokenizer.iter_words (add_once "") k;
      Tokenizer.iter_words (add_once k) v)
    n.attrs;
  !acc

let values doc =
  List.rev (Tree.fold (fun acc n -> node_values doc n acc) [] doc)

let shred ?(cid_mode = Cid.Approx) doc =
  let ltable = Tree.labels doc in
  let labels =
    List.init (Label.count ltable) (fun id ->
        { label_name = Label.name ltable id; label_id = id })
  in
  let label_path (n : Tree.node) =
    let rec up (n : Tree.node) acc =
      let acc = n.label :: acc in
      match Tree.parent_node doc n with None -> acc | Some p -> up p acc
    in
    up n []
  in
  let element (n : Tree.node) =
    {
      e_label = Tree.label_name doc n;
      e_dewey = n.dewey;
      e_level = Dewey.depth n.dewey;
      e_label_path = label_path n;
      e_content_feature = Cid.of_words cid_mode (Tree.content_words doc n);
    }
  in
  {
    labels;
    elements = Array.init (Tree.size doc) (fun id -> element (Tree.node doc id));
    values = values doc;
  }

let find_values values w =
  let w = Tokenizer.normalize w in
  List.filter (fun r -> String.equal r.v_keyword w) values

let row_count t =
  (List.length t.labels, Array.length t.elements, List.length t.values)
