module Tree = Xks_xml.Tree
module Tokenizer = Xks_xml.Tokenizer

type term = { label : string option; keyword : string }

let parse_term s =
  let fail () = invalid_arg ("Labeled.parse_term: malformed term " ^ s) in
  match String.index_opt s ':' with
  | None ->
      let keyword = Tokenizer.normalize s in
      if keyword = "" then fail ();
      { label = None; keyword }
  | Some i ->
      let label = Tokenizer.normalize (String.sub s 0 i) in
      let keyword =
        Tokenizer.normalize (String.sub s (i + 1) (String.length s - i - 1))
      in
      if label = "" then fail ();
      { label = Some label; keyword }

let term_to_string t =
  match t.label with
  | None -> t.keyword
  | Some l -> l ^ ":" ^ t.keyword

let posting idx t =
  let doc = Xks_index.Inverted.doc idx in
  match t.label with
  | None -> Xks_index.Inverted.posting idx t.keyword
  | Some label -> (
      match Xks_xml.Label.find (Tree.labels doc) label with
      | None -> [||]
      | Some label_id ->
          let labels = Tree.label_ids doc in
          let has_label id = labels.(id) = label_id in
          if t.keyword = "" then begin
            (* Label-only term: every node with the label. *)
            let acc = Xks_util.Int_vec.create () in
            for id = 0 to Tree.size doc - 1 do
              if has_label id then Xks_util.Int_vec.push acc id
            done;
            Xks_util.Int_vec.to_array acc
          end
          else
            Xks_index.Inverted.posting idx t.keyword
            |> Array.to_list |> List.filter has_label |> Array.of_list)

let query idx terms =
  let parsed = List.map parse_term terms in
  let keywords = List.map term_to_string parsed in
  let postings = Array.of_list (List.map (posting idx) parsed) in
  Query.of_postings
    ~features:(Xks_index.Inverted.features idx)
    (Xks_index.Inverted.doc idx) ~keywords postings

let search ?algorithm engine terms =
  let q = query (Engine.index engine) terms in
  let result =
    match algorithm with
    | None | Some Engine.Validrtf -> Validrtf.run_query q
    | Some Engine.Maxmatch -> Maxmatch.run_revised_query q
    | Some Engine.Maxmatch_original -> Maxmatch.run_original_query q
  in
  Engine.hits_of_result engine result
