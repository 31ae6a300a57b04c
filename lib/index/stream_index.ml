module Sax = Xks_xml.Sax
module Int_vec = Xks_util.Int_vec

let rows_of feed =
  let acc = Word_acc.create () in
  let next_id = ref 0 in
  let open_ids = Int_vec.create () in
  let on_start name attrs =
    let id = !next_id in
    incr next_id;
    Int_vec.push open_ids id;
    Word_acc.add_string acc id name;
    Word_acc.add_attrs acc id attrs
  in
  (* The element's text, untrimmed, read in place. *)
  let on_end _name s off len = Word_acc.add_slice acc (Int_vec.pop open_ids) s off len in
  feed (Sax.handler ~on_start ~on_end ());
  Word_acc.rows acc

let rows_of_string ?limits s = rows_of (fun h -> Sax.parse_string ?limits h s)
let rows_of_file ?limits path = rows_of (fun h -> Sax.parse_file ?limits h path)

let save_file ?limits ~input ~output () =
  let rows = rows_of_file ?limits input in
  Persist.save_table output rows;
  List.length rows
