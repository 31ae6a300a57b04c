type mode = Approx | Exact

type t =
  | Empty
  | Minmax of string * string
  | Words of string list  (* sorted, deduplicated *)

let empty = Empty
let str_min a b = if String.compare a b <= 0 then a else b
let str_max a b = if String.compare a b <= 0 then b else a

let of_words mode ws =
  match ws with
  | [] -> Empty
  | w0 :: rest -> (
      match mode with
      | Approx ->
          let lo, hi =
            List.fold_left
              (fun (lo, hi) w -> (str_min lo w, str_max hi w))
              (w0, w0) rest
          in
          Minmax (lo, hi)
      | Exact -> Words (List.sort_uniq String.compare ws))

let rec merge_sorted a b =
  match (a, b) with
  | [], l | l, [] -> l
  | x :: xs, y :: ys ->
      let c = String.compare x y in
      if c < 0 then x :: merge_sorted xs b
      else if c > 0 then y :: merge_sorted a ys
      else x :: merge_sorted xs ys

let merge a b =
  match (a, b) with
  | Empty, x | x, Empty -> x
  | Minmax (alo, ahi), Minmax (blo, bhi) ->
      Minmax (str_min alo blo, str_max ahi bhi)
  | Words a, Words b -> Words (merge_sorted a b)
  | Minmax _, Words _ | Words _, Minmax _ ->
      invalid_arg "Cid.merge: mixing approximate and exact features"

let compare a b =
  match (a, b) with
  | Empty, Empty -> 0
  | Empty, _ -> -1
  | _, Empty -> 1
  | Minmax (alo, ahi), Minmax (blo, bhi) ->
      let c = String.compare alo blo in
      if c <> 0 then c else String.compare ahi bhi
  | Words a, Words b -> List.compare String.compare a b
  | Minmax _, Words _ -> -1
  | Words _, Minmax _ -> 1

let equal a b = compare a b = 0

let hash = function
  | Empty -> 0
  | Minmax (lo, hi) -> (31 * Hashtbl.hash lo) + Hashtbl.hash hi
  | Words ws -> List.fold_left (fun h w -> (31 * h) + Hashtbl.hash w) 1 ws

let is_empty = function Empty -> true | Minmax _ | Words _ -> false

let pp fmt = function
  | Empty -> Format.pp_print_string fmt "()"
  | Minmax (lo, hi) -> Format.fprintf fmt "(%s, %s)" lo hi
  | Words ws ->
      Format.fprintf fmt "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           Format.pp_print_string)
        ws

(* Ranked approximate features.  A pair of lexical ranks packs into one
   int, [lo] in the high bits and [hi] in the low 31; the empty feature
   is (max, 0), so merging is a min on [lo] and a max on [hi] with no
   case for it, and it decodes to [Empty] because its [lo > hi]. *)
let rank_bits = 31
let rank_mask = (1 lsl rank_bits) - 1
let packed_empty = rank_mask lsl rank_bits
let pack lo hi = (lo lsl rank_bits) lor hi

let merge_packed a b =
  let alo = a lsr rank_bits and blo = b lsr rank_bits in
  let ahi = a land rank_mask and bhi = b land rank_mask in
  pack (Int.min alo blo) (Int.max ahi bhi)

type table = { words : string array; nodes : int array }

let table ~words ~postings ~nodes =
  let v = Array.length words in
  if not (Int.equal v (Array.length postings)) then
    invalid_arg "Cid.table: arity";
  if Int.compare v rank_mask >= 0 then
    invalid_arg "Cid.table: vocabulary too large";
  for r = 1 to v - 1 do
    if String.compare words.(r - 1) words.(r) >= 0 then
      invalid_arg "Cid.table: words not strictly ascending"
  done;
  (* One pass in rank order: a node first meets its smallest word and
     last meets its largest. *)
  let feats = Array.make nodes packed_empty in
  Array.iteri
    (fun r posting ->
      Array.iter
        (fun id ->
          let f = feats.(id) in
          feats.(id) <-
            (if Int.equal f packed_empty then pack r r
             else pack (f lsr rank_bits) r))
        posting)
    postings;
  { words; nodes = feats }

let decode tbl p =
  let lo = p lsr rank_bits and hi = p land rank_mask in
  if Int.compare lo hi > 0 then Empty else Minmax (tbl.words.(lo), tbl.words.(hi))
