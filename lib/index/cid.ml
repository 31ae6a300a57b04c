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
