module Tokenizer = Xks_xml.Tokenizer
module Stopwords = Xks_xml.Stopwords
module Int_vec = Xks_util.Int_vec

(* One distinct word.  Stop words get an entry too, so that their next
   occurrences are recognised by one probe and skipped. *)
type entry = {
  word : string;  (* lowercase *)
  hash : int;
  stopword : bool;
  ids : Int_vec.t;  (* node ids, deduplicated against the last one *)
  mutable occurrences : int;
  mutable in_order : bool;  (* [ids] ascending so far *)
}

(* Open addressing with linear probing over a power-of-two table;
   [none] marks an empty slot. *)
type t = { mutable slots : entry array; mutable count : int }

let none =
  { word = ""; hash = 0; stopword = true; ids = Int_vec.create ~capacity:1 ();
    occurrences = 0; in_order = true }

let create () = { slots = Array.make 1024 none; count = 0 }

(* FNV-1a over the lowercased bytes, so a word hashes alike in any case. *)
let rec hash_from s i stop h =
  if i < stop then
    hash_from s (i + 1) stop
      ((h lxor Char.code (Char.lowercase_ascii (String.unsafe_get s i)))
      * 0x100000001b3)
  else h lxor (h lsr 32)

(* [w] is the lowercased [s.[i .. stop - 1]]. *)
let rec same_from w s i stop k =
  i = stop
  || Char.equal (String.unsafe_get w k)
       (Char.lowercase_ascii (String.unsafe_get s i))
     && same_from w s (i + 1) stop (k + 1)

(* The slot of the word [s.[i .. stop - 1]] (hash [h]) from slot [k] on:
   its entry's, or the empty one where it would go. *)
let rec probe slots mask h s i stop k =
  let e = slots.(k) in
  if
    e == none
    || e.hash = h
       && String.length e.word = stop - i
       && same_from e.word s i stop 0
  then k
  else probe slots mask h s i stop ((k + 1) land mask)

let rec free slots mask k =
  if slots.(k) == none then k else free slots mask ((k + 1) land mask)

let grow t =
  let slots = Array.make (2 * Array.length t.slots) none in
  let mask = Array.length slots - 1 in
  Array.iter (fun e -> if e != none then slots.(free slots mask (e.hash land mask)) <- e) t.slots;
  t.slots <- slots

let entry t s i stop =
  let h = hash_from s i stop 0x0bf29ce484222325 in
  let mask = Array.length t.slots - 1 in
  let slot = probe t.slots mask h s i stop (h land mask) in
  let e = t.slots.(slot) in
  if e != none then e
  else begin
    (* The first occurrence: the word is copied and its stop-word flag
       decided once. *)
    let word = String.lowercase_ascii (String.sub s i (stop - i)) in
    let stopword = Stopwords.is_stopword word in
    let e =
      { word; hash = h; stopword;
        ids = Int_vec.create ~capacity:(if stopword then 1 else 16) ();
        occurrences = 0; in_order = true }
    in
    t.slots.(slot) <- e;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.slots then grow t;
    e
  end

let add_word t id s i stop =
  let e = entry t s i stop in
  if not e.stopword then begin
    e.occurrences <- e.occurrences + 1;
    let v = e.ids in
    if Int_vec.length v = 0 then Int_vec.push v id
    else
      let last = Int_vec.last v in
      if id <> last then begin
        if id < last then e.in_order <- false;
        Int_vec.push v id
      end
  end

let add_slice t id s off len =
  let stop = off + len in
  let i = ref (Tokenizer.word_start s off stop) in
  while !i < stop do
    let j = Tokenizer.word_end s !i stop in
    add_word t id s !i j;
    i := Tokenizer.word_start s j stop
  done

let add_string t id s = add_slice t id s 0 (String.length s)

let rec add_attrs t id = function
  | [] -> ()
  | (k, v) :: rest ->
      add_string t id k;
      add_string t id v;
      add_attrs t id rest

let rows t =
  let entries =
    Array.of_list
      (Array.fold_left
         (fun acc e -> if e == none || e.stopword then acc else e :: acc)
         [] t.slots)
  in
  Array.sort (fun a b -> String.compare a.word b.word) entries;
  Array.fold_right
    (fun e rows ->
      (* Text attributed at a non-leaf element's end tag comes after its
         descendants' ids: only such postings need sorting. *)
      if not e.in_order then Int_vec.sort_uniq e.ids;
      (e.word, e.occurrences, Int_vec.to_array e.ids) :: rows)
    entries []
