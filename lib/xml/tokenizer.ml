let normalize = String.lowercase_ascii

let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let rec word_start s i stop =
  if i < stop && not (is_word_char (String.unsafe_get s i)) then
    word_start s (i + 1) stop
  else i

let rec word_end s i stop =
  if i < stop && is_word_char (String.unsafe_get s i) then word_end s (i + 1) stop
  else i

(* [normalize (String.sub s start (stop - start))], in one copy. *)
let normalize_sub s start stop =
  let w = Bytes.create (stop - start) in
  for j = 0 to stop - start - 1 do
    Bytes.unsafe_set w j (Char.lowercase_ascii (String.unsafe_get s (start + j)))
  done;
  Bytes.unsafe_to_string w

let rec iter_words_from ~keep_stopwords f s n i =
  let start = word_start s i n in
  if start < n then begin
    let stop = word_end s start n in
    let w = normalize_sub s start stop in
    if keep_stopwords || not (Stopwords.is_stopword w) then f w;
    iter_words_from ~keep_stopwords f s n stop
  end

let iter_words ?(keep_stopwords = false) f s =
  iter_words_from ~keep_stopwords f s (String.length s) 0

let words ?keep_stopwords s =
  let acc = ref [] in
  iter_words ?keep_stopwords (fun w -> acc := w :: !acc) s;
  List.rev !acc

let word_set ?keep_stopwords s =
  List.sort_uniq String.compare (words ?keep_stopwords s)
