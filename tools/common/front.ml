(* Front end shared by the xks analyzers.

   xksrace, xksleak and xkscost are rule sets over one loaded program,
   and xkslint walks the same loaded files.  Loading reads, parses and
   scans every [.ml] under the roots once.  A module is identified by
   its file, never by its basename alone: [Xks_lca.Topk] and the
   oracle's [Xks_check.Topk] are two modules.  Resolution of a
   qualified [M.f] follows dune's scoping — a sibling [m.ml] first,
   then a library-qualified path or a [module X = ...] alias, then the
   only scanned module named [M] — and leaves an ambiguous name
   unresolved rather than guessing. *)

module StringSet = Set.Make (String)

(* --- annotation grammar --- *)

type 'a form = Flag of 'a | Name of (string -> 'a) | Rule of (string -> 'a) | Reason of 'a
type 'a grammar = (string * 'a form) list

exception Bad_annotation of int * string

let split_word s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.trim (String.sub s (i + 1) (String.length s - i - 1)))

let rec find_from text sub i =
  if i + String.length sub > String.length text then None
  else if String.equal (String.sub text i (String.length sub)) sub then Some i
  else find_from text sub (i + 1)

let parse_annotation ~rules grammar body =
  let keyword, rest = split_word body in
  match List.assoc_opt keyword grammar with
  | None -> Error (Printf.sprintf "unknown keyword %S" keyword)
  | Some (Flag a) -> if rest = "" then Ok a else Error (keyword ^ " takes no argument")
  | Some (Name f) ->
      if rest = "" then Error (keyword ^ " needs a name") else Ok (f (fst (split_word rest)))
  | Some (Reason a) -> if rest = "" then Error (keyword ^ " needs a reason") else Ok a
  | Some (Rule f) ->
      let rule, reason = split_word rest in
      if not (List.mem rule rules) then Error (Printf.sprintf "unknown rule id %S" rule)
      else if reason = "" then Error (keyword ^ " needs a reason")
      else Ok (f rule)

(* The full comment-opening form: a looser match would fire on prose
   that merely mentions the tool. *)
let scan ~tool ~rules grammar src =
  let marker = "(* " ^ tool ^ ": " in
  List.concat
    (List.mapi
       (fun i text ->
         let rec from j acc =
           match find_from text marker j with
           | None -> List.rev acc
           | Some s ->
               let start = s + String.length marker in
               let stop =
                 Option.value (find_from text "*)" start) ~default:(String.length text)
               in
               let body = String.trim (String.sub text start (stop - start)) in
               match parse_annotation ~rules grammar body with
               | Ok a -> from stop ((i + 1, a) :: acc)
               | Error why ->
                   raise (Bad_annotation (i + 1, Printf.sprintf "%s in %S" why body))
         in
         from 0 [])
       (String.split_on_char '\n' src))

(* --- syntax helpers --- *)

let qualifier (lid : Longident.t) =
  match lid with
  | Ldot (path, _) -> (
      match List.rev (Longident.flatten path) with [] -> None | m :: _ -> Some m)
  | Lident _ | Lapply _ -> None

let rec peel (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> peel e
  | _ -> e

let rec peel_fun (e : Parsetree.expression) =
  match (peel e).pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
      let name = match pat.ppat_desc with Ppat_var { txt; _ } -> txt | _ -> "_" in
      let params, core = peel_fun body in
      (name :: params, core)
  | Pexp_newtype (_, body) -> peel_fun body
  | _ -> ([], peel e)

let rec path_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } | Pexp_field (_, { txt; _ }) -> Longident.last txt
  | Pexp_constraint (e, _) -> path_name e
  | _ -> "?"

let pattern_vars p =
  let acc = ref [] in
  let pat it (p : Parsetree.pattern) =
    (match p.ppat_desc with Ppat_var { txt; _ } -> acc := txt :: !acc | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  List.rev !acc

type mentions = {
  bare : StringSet.t;
  qualified : (string list * string) list;
  fields : StringSet.t;
}

let mentions root =
  let bare = ref StringSet.empty and qualified = ref [] and fields = ref StringSet.empty in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt = Lident x; _ } -> bare := StringSet.add x !bare
    | Pexp_ident { txt = Ldot (path, x); _ } ->
        qualified := (Longident.flatten path, x) :: !qualified
    | Pexp_field (_, { txt; _ }) | Pexp_setfield (_, { txt; _ }, _) ->
        fields := StringSet.add (Longident.last txt) !fields
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it root;
  { bare = !bare; qualified = !qualified; fields = !fields }

(* --- loading --- *)

type 'a file = {
  path : string;
  modname : string;
  structure : Parsetree.structure;
  anns : (int, 'a) Hashtbl.t;
  aliases : (string * string list) list;
}

type 'a binding = {
  file : 'a file;
  name : string;
  toplevel : bool;
  vb : Parsetree.value_binding;
  params : string list;
  body : Parsetree.expression;
  line : int;
  anns : 'a list;
  mentions : mentions;
}

type 'a program = {
  files : 'a file list;
  bindings : 'a binding list;
  by_name : (string, 'a file) Hashtbl.t;
  libs : (string, string) Hashtbl.t;
}

let rec walk_dir path acc =
  if Sys.is_directory path then
    let entries = Sys.readdir path in
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc e ->
        if e <> "" && e.[0] <> '.' then walk_dir (Filename.concat path e) acc else acc)
      acc entries
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let anns_at (file : _ file) line =
  Hashtbl.find_all file.anns line @ Hashtbl.find_all file.anns (line - 1)

let rec aliases_of structure =
  List.concat_map
    (fun (si : Parsetree.structure_item) ->
      match si.pstr_desc with
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> [ (name, Longident.flatten txt) ]
          | Pmod_structure s -> aliases_of s
          | _ -> [])
      | _ -> [])
    structure

(* Every variable-pattern [let] of a file, in document order: the
   structure-level ones (inside [struct] too) and everything nested. *)
let bindings_of file =
  let out = ref [] in
  let add ~toplevel (vb : Parsetree.value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } ->
        let params, body = peel_fun vb.pvb_expr in
        let line = vb.pvb_loc.loc_start.pos_lnum in
        let anns = anns_at file line and mentions = mentions vb.pvb_expr in
        out := { file; name = txt; toplevel; vb; params; body; line; anns; mentions } :: !out
    | _ -> ()
  in
  let value_binding it vb =
    add ~toplevel:false vb;
    Ast_iterator.default_iterator.value_binding it vb
  in
  let nested = { Ast_iterator.default_iterator with value_binding } in
  let rec item (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            add ~toplevel:true vb;
            nested.expr nested vb.pvb_expr)
          vbs
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        List.iter item s
    | Pstr_eval (e, _) -> nested.expr nested e
    | _ -> ()
  in
  List.iter item file.structure;
  List.rev !out

(* Library names a directory's dune file declares, as module names. *)
let libs_of dir =
  let dune = Filename.concat dir "dune" in
  if not (Sys.file_exists dune) then []
  else
    let text = read_file dune in
    let rec go i acc =
      match find_from text "(name " i with
      | None -> acc
      | Some s ->
          let start = s + 6 in
          let stop = ref start in
          while !stop < String.length text && not (String.contains " )\n" text.[!stop]) do
            incr stop
          done;
          go !stop (String.capitalize_ascii (String.sub text start (!stop - start)) :: acc)
    in
    go 0 []

let load ~tool ~rules grammar roots =
  let files =
    List.concat_map (fun r -> List.rev (walk_dir r [])) roots
    |> List.map (fun path ->
           let src = read_file path in
           let lexbuf = Lexing.from_string src in
           Lexing.set_filename lexbuf path;
           let structure =
             try Parse.implementation lexbuf
             with Syntaxerr.Error _ ->
               Printf.eprintf "%s: %s: syntax error\n" tool path;
               exit 2
           in
           let anns = Hashtbl.create 16 in
           (match scan ~tool ~rules grammar src with
           | found -> List.iter (fun (l, a) -> Hashtbl.add anns l a) found
           | exception Bad_annotation (line, why) ->
               Printf.eprintf "%s: %s: line %d: %s\n" tool path line why;
               exit 2);
           let modname =
             String.capitalize_ascii (Filename.remove_extension (Filename.basename path))
           in
           { path; modname; structure; anns; aliases = aliases_of structure })
  in
  let by_name = Hashtbl.create 64 and libs = Hashtbl.create 16 in
  List.iter (fun f -> Hashtbl.add by_name f.modname f) (List.rev files);
  List.iter
    (fun dir -> List.iter (fun l -> Hashtbl.replace libs l dir) (libs_of dir))
    (List.sort_uniq String.compare (List.map (fun f -> Filename.dirname f.path) files));
  { files; bindings = List.concat_map bindings_of files; by_name; libs }

(* --- resolution --- *)

let rec resolve prog file path =
  let named = Hashtbl.find_all prog.by_name in
  let in_dir dir m =
    List.find_opt (fun f -> String.equal (Filename.dirname f.path) dir) (named m)
  in
  let unique m = match named m with [ f ] -> Some f | _ -> None in
  let qualified = function
    | [ lib; m ] -> Option.bind (Hashtbl.find_opt prog.libs lib) (fun dir -> in_dir dir m)
    | _ -> None
  in
  let ( ||| ) a b = match a with Some _ -> a | None -> b () in
  match path with
  | [] -> None
  | [ m ] ->
      in_dir (Filename.dirname file.path) m
      ||| (fun () ->
            Option.bind (List.assoc_opt m file.aliases)
              (resolve prog { file with aliases = List.remove_assoc m file.aliases }))
      ||| fun () -> unique m
  | _ -> qualified path ||| fun () -> unique (List.nth path (List.length path - 1))

(* --- fixpoint --- *)

let fixpoint items step =
  let changed = ref true in
  while !changed do
    changed := List.fold_left (fun c x -> step x || c) false items
  done
