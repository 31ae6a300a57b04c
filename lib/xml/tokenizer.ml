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

let iter_words ?(keep_stopwords = false) f s =
  let n = String.length s in
  let rec loop i =
    let start = word_start s i n in
    if start < n then begin
      let stop = word_end s start n in
      let w = normalize (String.sub s start (stop - start)) in
      if keep_stopwords || not (Stopwords.is_stopword w) then f w;
      loop stop
    end
  in
  loop 0

let words ?keep_stopwords s =
  let acc = ref [] in
  iter_words ?keep_stopwords (fun w -> acc := w :: !acc) s;
  List.rev !acc

let word_set ?keep_stopwords s =
  List.sort_uniq String.compare (words ?keep_stopwords s)
