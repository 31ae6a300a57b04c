module Sax = Xks_xml.Sax
module Tokenizer = Xks_xml.Tokenizer

type entry = { ids : Xks_util.Int_vec.t; mutable occurrences : int }

type frame = { node_id : int; text : Buffer.t }

let rows_of feed =
  let entries : (string, entry) Hashtbl.t = Hashtbl.create 4096 in
  let add id w =
    let e =
      match Hashtbl.find_opt entries w with
      | Some e -> e
      | None ->
          let e = { ids = Xks_util.Int_vec.create (); occurrences = 0 } in
          Hashtbl.add entries w e;
          e
    in
    e.occurrences <- e.occurrences + 1;
    (* Ids arrive out of order (text words are attributed at the end
       tag, after the descendants'); postings are sorted once at the
       end. *)
    Xks_util.Int_vec.push e.ids id
  in
  let next_id = ref 0 in
  let stack = ref [] in
  let on_start name attrs =
    let id = !next_id in
    incr next_id;
    stack := { node_id = id; text = Buffer.create 16 } :: !stack;
    let feed_words s = Tokenizer.iter_words (add id) s in
    feed_words name;
    List.iter
      (fun (k, v) ->
        feed_words k;
        feed_words v)
      attrs
  in
  let on_text s =
    match !stack with
    | frame :: _ -> Buffer.add_string frame.text s
    | [] -> assert false (* text only occurs inside the root element *)
  in
  let on_end _ =
    match !stack with
    | frame :: rest ->
        Tokenizer.iter_words (add frame.node_id) (Buffer.contents frame.text);
        stack := rest
    | [] -> assert false (* ends pair with starts *)
  in
  feed (Sax.handler ~on_start ~on_text ~on_end ());
  Hashtbl.fold
    (fun w e acc ->
      let posting =
        Xks_util.Int_vec.to_array e.ids |> Array.to_list
        |> List.sort_uniq Int.compare |> Array.of_list
      in
      (w, e.occurrences, posting) :: acc)
    entries []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let rows_of_string ?limits s = rows_of (fun h -> Sax.parse_string ?limits h s)
let rows_of_file ?limits path = rows_of (fun h -> Sax.parse_file ?limits h path)

let save_file ?limits ~input ~output () =
  let rows = rows_of_file ?limits input in
  Persist.save_table output rows;
  List.length rows
