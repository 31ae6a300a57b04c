(* Clean fixture: a comparator module (this basename) written the way
   the rules demand — must produce zero findings. *)
type t = Int of int | Text of string

let compare a b =
  match (a, b) with
  | Int a, Int b -> Int.compare a b
  | Text a, Text b -> String.compare a b
  | Int _, Text _ -> -1
  | Text _, Int _ -> 1

(* A module-local [compare] may be used bare. *)
let equal a b = compare a b = 0

(* The allowlist comment admits a vetted polymorphic comparison. *)
(* xkslint: allow poly-compare vetted structural equality *)
let loose_equal (a : t) (b : t) = a = b

let find_first tbl key =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None -> invalid_arg ("Value.find_first: unknown key " ^ key)

let read_int s = try int_of_string s with Failure _ -> 0

let describe fmt v =
  Format.fprintf fmt "%d" (match v with Int i -> i | Text t -> String.length t)
