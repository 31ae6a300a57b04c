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
let node_values doc id acc =
  let name = Tree.label_name doc id and dewey = Tree.dewey doc id in
  let acc = ref acc and seen = Hashtbl.create 8 in
  let add_once attribute w =
    if not (Hashtbl.mem seen w) then begin
      Hashtbl.add seen w ();
      acc :=
        {
          v_label = name;
          v_dewey = dewey;
          v_id = id;
          v_attribute = attribute;
          v_keyword = w;
        }
        :: !acc
    end
  in
  Tokenizer.iter_words (add_once "") name;
  Tokenizer.iter_words (add_once "") (Tree.text doc id);
  List.iter
    (fun (k, v) ->
      Tokenizer.iter_words (add_once "") k;
      Tokenizer.iter_words (add_once k) v)
    (Tree.attrs doc id);
  !acc

let values doc =
  let acc = ref [] in
  for id = 0 to Tree.size doc - 1 do
    acc := node_values doc id !acc
  done;
  List.rev !acc

let shred ?(cid_mode = Cid.Approx) doc =
  let ltable = Tree.labels doc in
  let labels =
    List.init (Label.count ltable) (fun id ->
        { label_name = Label.name ltable id; label_id = id })
  in
  let parents = Tree.parents doc and label_ids = Tree.label_ids doc in
  let label_path id =
    let rec up id acc =
      if id < 0 then acc else up parents.(id) (label_ids.(id) :: acc)
    in
    up id []
  in
  let element id =
    let dewey = Tree.dewey doc id in
    {
      e_label = Tree.label_name doc id;
      e_dewey = dewey;
      e_level = Dewey.depth dewey;
      e_label_path = label_path id;
      e_content_feature = Cid.of_words cid_mode (Tree.content_words doc id);
    }
  in
  {
    labels;
    elements = Array.init (Tree.size doc) element;
    values = values doc;
  }

let find_values values w =
  let w = Tokenizer.normalize w in
  List.filter (fun r -> String.equal r.v_keyword w) values

let row_count t =
  (List.length t.labels, Array.length t.elements, List.length t.values)
