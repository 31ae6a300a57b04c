type t = int array

let root = [||]

let of_array a =
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Dewey.of_array: negative component")
    a;
  Array.copy a

let of_list l = of_array (Array.of_list l)

let child d i =
  if i < 0 then invalid_arg "Dewey.child: negative rank";
  let n = Array.length d in
  let r = Array.make (n + 1) i in
  Array.blit d 0 r 0 n;
  r

let parent d =
  let n = Array.length d in
  if n = 0 then None else Some (Array.sub d 0 (n - 1))

let depth = Array.length

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec loop i =
    if Int.equal i la then if Int.equal i lb then 0 else -1
    else if Int.equal i lb then 1
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let equal a b = compare a b = 0

let is_ancestor_or_self a d =
  let la = Array.length a and ld = Array.length d in
  Int.compare la ld <= 0
  &&
  let rec loop i = Int.equal i la || (Int.equal a.(i) d.(i) && loop (i + 1)) in
  loop 0

let is_ancestor a d =
  Int.compare (Array.length a) (Array.length d) < 0 && is_ancestor_or_self a d

let lca_depth a b =
  let n = Int.min (Array.length a) (Array.length b) in
  (* Plain int comparisons in the scan loop: both operands are array
     indices, so the polymorphic specialisation is exact and the bounds
     check reads better than an Int.compare dance. *)
  (* xkslint: allow poly-compare int array indices, see above *)
  let rec loop i = if i < n && Int.equal a.(i) b.(i) then loop (i + 1) else i in
  loop 0

let lca a b = Array.sub a 0 (lca_depth a b)

let lca_list = function
  | [] -> invalid_arg "Dewey.lca_list: empty list"
  | d :: ds -> List.fold_left lca d ds

let prefix d n =
  if n < 0 || Int.compare n (Array.length d) > 0 then invalid_arg "Dewey.prefix";
  Array.sub d 0 n

let component d i = d.(i)

let to_string d =
  let b = Buffer.create (2 * (Array.length d + 1)) in
  Buffer.add_char b '0';
  Array.iter
    (fun c ->
      Buffer.add_char b '.';
      Buffer.add_string b (string_of_int c))
    d;
  Buffer.contents b

let of_string s =
  match String.split_on_char '.' s with
  | "0" :: rest ->
      of_list
        (List.map
           (fun p ->
             match int_of_string_opt p with
             | Some c when c >= 0 -> c
             | Some _ | None -> invalid_arg "Dewey.of_string")
           rest)
  | _ -> invalid_arg "Dewey.of_string"
