(* Shared entry point and reporting layer for the xks static analyzers.

   xkslint, xksrace, xksleak and xkscost are separate binaries with one
   contract: load the directory roots given on the command line
   (Front), run the tool's rules, print findings in the compiler's own
   location format (or one JSON object under [--json]), and exit 0
   clean / 1 findings / 2 usage, parse or annotation errors.  This
   module is that contract, factored out so the four tools cannot
   drift: argv, suppression by annotation, de-duplication, the
   deterministic sort, the text and JSON printers and the exit logic
   all live here.

   The JSON finding schema is shared by all tools:

     {"tool": <name>, "files_scanned": N,
      "findings": [{"file", "line", "cstart", "cend", "rule",
                    "message"}, ...]}

   with 1-based lines and 0-based column spans (compiler convention). *)

type finding = {
  file : string;
  line : int;
  cstart : int;  (* column span, 0-based, compiler convention *)
  cend : int;
  rule : string;
  msg : string;
}

let at file (loc : Location.t) rule msg =
  {
    file;
    line = loc.loc_start.pos_lnum;
    cstart = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    cend = loc.loc_end.pos_cnum - loc.loc_end.pos_bol;
    rule;
    msg;
  }

(* --- deterministic ordering: file, then line, then column, then rule --- *)

let sort findings =
  List.stable_sort
    (fun a b ->
      let c = String.compare a.file b.file in
      if c <> 0 then c
      else
        let c = Int.compare a.line b.line in
        if c <> 0 then c
        else
          let c = Int.compare a.cstart b.cstart in
          if c <> 0 then c else String.compare a.rule b.rule)
    findings

(* --- output --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print_text f =
  Printf.printf "File \"%s\", line %d, characters %d-%d:\n[%s] %s\n" f.file
    f.line f.cstart f.cend f.rule f.msg

let print_json ~tool ~files_scanned findings =
  print_string "{\n";
  Printf.printf "  \"tool\": \"%s\",\n" tool;
  Printf.printf "  \"files_scanned\": %d,\n" files_scanned;
  Printf.printf "  \"findings\": [";
  List.iteri
    (fun i f ->
      Printf.printf
        "%s\n    {\"file\": \"%s\", \"line\": %d, \"cstart\": %d, \"cend\": \
         %d, \"rule\": \"%s\", \"message\": \"%s\"}"
        (if i = 0 then "" else ",")
        (json_escape f.file) f.line f.cstart f.cend (json_escape f.rule)
        (json_escape f.msg))
    findings;
  if findings <> [] then print_string "\n  ";
  print_string "]\n}\n"

(* --- the entry point: [TOOL [--json] DIR...] --- *)

let parse_argv ~tool argv =
  let args = match Array.to_list argv with _ :: args -> args | [] -> [] in
  let roots = List.filter (fun a -> a <> "--json") args in
  if roots = [] || List.exists (fun r -> String.length r > 0 && r.[0] = '-') roots then begin
    Printf.eprintf "usage: %s [--json] DIR...\n" tool;
    exit 2
  end;
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then begin
        Printf.eprintf "%s: no such file or directory: %s\n" tool r;
        exit 2
      end)
    roots;
  (List.mem "--json" args, roots)

let main ~tool ?(rules = []) ?(suppresses = fun _ _ -> false) ?(by_position = false)
    grammar check =
  let json, roots = parse_argv ~tool Sys.argv in
  let prog = Front.load ~tool ~rules grammar roots in
  let files = Hashtbl.create 64 in
  List.iter (fun (f : _ Front.file) -> Hashtbl.replace files f.path f) prog.files;
  let findings = ref [] and seen = Hashtbl.create 64 in
  check prog (fun f ->
      let suppressed =
        match Hashtbl.find_opt files f.file with
        | Some file -> List.exists (fun a -> suppresses a f.rule) (Front.anns_at file f.line)
        | None -> false
      in
      let key = if by_position then { f with cend = 0; msg = "" } else f in
      if not (suppressed || Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        findings := f :: !findings
      end);
  let findings = sort !findings in
  if json then print_json ~tool ~files_scanned:(List.length prog.files) findings
  else List.iter print_text findings;
  match findings with
  | [] -> exit 0
  | _ :: _ ->
      if not json then
        Printf.eprintf "%s: %d finding(s) in %d file(s) (%d files scanned)\n"
          tool (List.length findings)
          (List.length
             (List.sort_uniq String.compare
                (List.map (fun f -> f.file) findings)))
          (List.length prog.files);
      exit 1
