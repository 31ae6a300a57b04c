module Tree = Xks_xml.Tree
module Tokenizer = Xks_xml.Tokenizer

let default_highlight w = "[" ^ w ^ "]"

(* The first fragment member whose own content contains the keyword. *)
let find_occurrence (q : Query.t) frag keyword =
  List.find_opt
    (fun id -> Tree.node_matches q.doc id keyword)
    (Fragment.members_list frag)

(* A window of raw words around the first occurrence of [keyword] in
   [text]; words are kept verbatim (stop words included) so the snippet
   stays readable. *)
let window_of_text ~window ~highlight text keyword =
  let raw = String.split_on_char ' ' text |> List.filter (fun s -> s <> "") in
  let matches w =
    List.exists (String.equal keyword) (Tokenizer.words ~keep_stopwords:true w)
  in
  let rec locate i = function
    | [] -> None
    | w :: rest -> if matches w then Some i else locate (i + 1) rest
  in
  match locate 0 raw with
  | None -> None
  | Some pos ->
      let n = List.length raw in
      let lo = max 0 (pos - window) and hi = min (n - 1) (pos + window) in
      let words =
        List.filteri (fun i _ -> i >= lo && i <= hi) raw
        |> List.mapi (fun i w ->
               if i + lo = pos then highlight w else w)
      in
      let prefix = if lo > 0 then "... " else "" in
      let suffix = if hi < n - 1 then " ..." else "" in
      Some (prefix ^ String.concat " " words ^ suffix)

let fragment_piece ~window ~highlight (q : Query.t) frag keyword =
  match find_occurrence q frag keyword with
  | None -> None
  | Some id -> (
      let text = Tree.text q.doc id in
      match window_of_text ~window ~highlight text keyword with
      | Some s -> Some s
      | None ->
          (* Matched through the label or an attribute: show the node. *)
          let label = Tree.label_name q.doc id in
          let shown =
            if text = "" then highlight label
            else Printf.sprintf "%s: %s" (highlight label) text
          in
          Some shown)

let of_fragment ?(window = 3) ?(highlight = default_highlight) (q : Query.t)
    frag =
  let pieces =
    Array.to_list q.keywords
    |> List.filter_map (fragment_piece ~window ~highlight q frag)
  in
  (* Identical windows (several keywords hitting the same phrase) are
     shown once. *)
  let rec dedup seen = function
    | [] -> []
    | p :: rest ->
        if List.mem p seen then dedup seen rest
        else p :: dedup (p :: seen) rest
  in
  String.concat " ... " (dedup [] pieces)

let for_hits ?window ?highlight q frags =
  List.map (of_fragment ?window ?highlight q) frags
