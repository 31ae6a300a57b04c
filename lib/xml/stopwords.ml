(* The classic English stop-word list (the one behind Lucene's default
   English analyzer, extended with the common function words of the
   syger.com list the paper points to). *)
let words =
  [
    "a"; "about"; "above"; "after"; "again"; "against"; "all"; "am"; "an";
    "and"; "any"; "are"; "aren"; "as"; "at"; "be"; "because"; "been";
    "before"; "being"; "below"; "between"; "both"; "but"; "by"; "can";
    "cannot"; "could"; "couldn"; "did"; "didn"; "do"; "does"; "doesn";
    "doing"; "don"; "down"; "during"; "each"; "few"; "for"; "from";
    "further"; "had"; "hadn"; "has"; "hasn"; "have"; "haven"; "having";
    "he"; "her"; "here"; "hers"; "herself"; "him"; "himself"; "his"; "how";
    "i"; "if"; "in"; "into"; "is"; "isn"; "it"; "its"; "itself"; "let";
    "me"; "more"; "most"; "mustn"; "my"; "myself"; "no"; "nor"; "not";
    "of"; "off"; "on"; "once"; "only"; "or"; "other"; "ought"; "our";
    "ours"; "ourselves"; "out"; "over"; "own"; "same"; "shan"; "she";
    "should"; "shouldn"; "so"; "some"; "such"; "than"; "that"; "the";
    "their"; "theirs"; "them"; "themselves"; "then"; "there"; "these";
    "they"; "this"; "those"; "through"; "to"; "too"; "under"; "until";
    "up"; "very"; "was"; "wasn"; "we"; "were"; "weren"; "what"; "when";
    "where"; "which"; "while"; "who"; "whom"; "why"; "with"; "won";
    "would"; "wouldn"; "you"; "your"; "yours"; "yourself"; "yourselves";
    "s"; "t"; "ll"; "re"; "ve"; "d"; "m";
  ]

let set =
  (* Populated once at module initialisation, only read (Hashtbl.mem)
     afterwards — safe to share across domains. *)
  (* xkslint: allow module-state write-once at init, read-only after *)
  let h = Hashtbl.create 256 in
  List.iter (fun w -> Hashtbl.replace h w ()) words;
  h

let is_stopword w = Hashtbl.mem set w
let all () = words
