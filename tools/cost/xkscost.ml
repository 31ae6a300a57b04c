(* xkscost — hot-path complexity and budget-discipline analysis.

   The ELCA/SLCA drivers are attractive precisely because of their
   complexity guarantees over sorted Dewey postings, and the serving
   layer's per-request deadlines only bound latency if every traversal
   loop actually reaches [Budget.tick].  Both properties are global
   (they hold or break across call chains, not single expressions) and
   both have regressed silently before — the PR 9 predicate-partition
   draft ran 20x slower than full enumeration because of an accidental
   quadratic list idiom in the scan path, and an unticked drain loop is
   invisible to the fault suite unless an injection happens to land in
   it.  This tool machine-enforces them with a two-pass whole-program
   scan of the directories on the command line (normally [lib bin]),
   built — like xkslint/xksrace/xksleak — on the compiler's own front
   end ([Parse.implementation] + hand-rolled walks).

   Pass 1 (call graph and hot set, cross-module).  Every [.ml] is
   parsed; every [let]-bound name (any nesting depth) becomes a node
   keyed by its file and name, with edges to every unqualified
   identifier it mentions (resolved within its own file) and every
   qualified [M.f] mention (resolved by the shared front end,
   [Xks_report.Front]: sibling, library path or alias, unique name).
   Mentions, not just call heads, so higher-order passing
   ([Array.iter process s1]) keeps [process] reachable.  Three
   fixpoints run over this graph:

     hot      reachable from the entry points whose complexity is the
              paper's contract — [Engine.search]/[search_result],
              [Inverted.posting], every top-level binding of a file
              under a [lca] directory, plus anything annotated
              [(* xkscost: hot *)].
     ticking  reaches a budget charge: [Budget.tick]/[tick_opt]/[check]
              (through any alias chain ending in a [Budget] qualifier),
              directly or through a callee.
     vocab    mentions index data by name — an identifier or record
              field whose name contains one of the traversal stems
              [posting]/[stack]/[fragment]/[knode] — directly or
              through a same-module callee.

   Pass 2 (enforcement, per file, hot code only).  A {e loop} is a
   [while]/[for] body, the callback of a [List]/[Array]/[Hashtbl]
   iteration ([iter]/[map]/[fold]/[sort]/...) or of
   [Tree.fold_children], or the body of a self-recursive binding.  Two rule families:

   Complexity — inside hot loop bodies and the same-file functions they
   (transitively) mention:

   C1 [list-append]      [@] / [List.append] / [List.concat] /
                         [List.flatten]: the left operand is copied on
                         every iteration, turning a linear scan
                         quadratic (the PR 9 regression class).
   C2 [membership-scan]  [List.mem]/[assoc]/[nth] (and [..._opt]/[memq]
                         variants): a linear scan per iteration where
                         the scan path promises one pass over sorted
                         postings.
   C3 [hashtbl-fold]     [Hashtbl.fold] under iteration: rebuilds an
                         accumulator over the whole table per step.
   C4 [loop-alloc]       closure or tuple allocated per iteration of a
                         loop annotated [(* xkscost: tight *)] — minor-
                         GC churn is a stop-the-world barrier multiplier
                         under domains, so the tightest loops opt into
                         allocation-freedom checking.

   Budget discipline:

   B1 [unticked-loop]    a hot loop whose region (the loop expression
                         plus its same-module callees' vocabulary)
                         touches index data but reaches no
                         [Budget.tick]/[check] on any path of the call
                         graph: a request deadline cannot interrupt it.
                         Loops that compute the argument {e of} a tick
                         call are exempt by construction.

   Annotation grammar (comment on the flagged line or the line above):

     (* xkscost: hot *)                     binding: extra hot root
     (* xkscost: tight *)                   loop: enable C4 here
     (* xkscost: allow <rule> <reason> *)   suppress <rule> findings on
                                            this line
     (* xkscost: unticked <reason> *)       loop: B1 exemption with its
                                            safety argument (typically:
                                            pre-charged, k-bounded, or
                                            oracle-only path)

   Known approximations, by design (this is a linter, not a verifier):
   names are resolved per file, not per scope, so shadowing
   over-approximates; reachability ignores dead branches; the
   traversal vocabulary is nominal — a posting array renamed [xs]
   escapes B1, and a [stack] of something else is conservatively
   in.  Loading, the annotation grammar, the fixpoint, output,
   [--json] and the 0/1/2 exit contract are the shared analyzer layer
   ([Xks_report.Front] and [Xks_report.Report]). *)

module Front = Xks_report.Front
module Report = Xks_report.Report
module StringSet = Front.StringSet

let tool = "xkscost"

let all_rules =
  [ "list-append"; "membership-scan"; "hashtbl-fold"; "loop-alloc";
    "unticked-loop" ]

(* Traversal vocabulary: names that identify index data on the scan
   path.  Substring match, lowercased, so [postings], [stack_top] and
   [knodes_of] all count. *)
let vocab_stems = [ "posting"; "stack"; "fragment"; "knode" ]

(* Entry points that are hot without annotation: the budgeted search
   API, the posting fetch, and (seeded by path, below) every lib/lca
   driver. *)
let default_roots =
  [ ("Engine", "search"); ("Engine", "search_result");
    ("Inverted", "posting") ]

let budget_fns = [ "tick"; "tick_opt"; "check" ]

(* Iteration combinators whose callback body is a loop body. *)
let iterator_fns =
  [ ("List",
     [ "iter"; "iteri"; "map"; "mapi"; "rev_map"; "map2"; "iter2";
       "fold_left"; "fold_right"; "fold_left2"; "filter"; "filteri";
       "filter_map"; "concat_map"; "partition"; "for_all"; "exists";
       "find"; "find_opt"; "find_map"; "sort"; "sort_uniq"; "stable_sort" ]);
    ("Array",
     [ "iter"; "iteri"; "map"; "mapi"; "map2"; "iter2"; "fold_left";
       "fold_right"; "for_all"; "exists"; "sort"; "stable_sort" ]);
    ("Hashtbl", [ "iter"; "fold"; "filter_map_inplace" ]);
    ("Tree", [ "fold_children" ]);
    ("Indexed_stack", [ "scan" ]) ]

let is_iterator m f =
  match List.assoc_opt m iterator_fns with
  | Some fns -> List.mem f fns
  | None -> false

(* ------------------------------------------------------------------ *)
(* Annotations                                                        *)

type ann = Hot | Tight | Allow of string | Unticked

let grammar =
  Front.
    [
      ("hot", Flag Hot);
      ("tight", Flag Tight);
      ("allow", Rule (fun r -> Allow r));
      ("unticked", Reason Unticked);
    ]

let under_lca_dir path =
  List.exists (String.equal "lca") (String.split_on_char '/' path)

(* Traversal stems among identifiers and record fields mentioned. *)
let stems_in (m : Front.mentions) =
  let names = StringSet.union m.bare m.fields in
  StringSet.of_list
    (List.filter
       (fun stem ->
         StringSet.exists
           (fun n ->
             let n = String.lowercase_ascii n in
             let sl = String.length stem and nl = String.length n in
             let rec find i = i + sl <= nl && (String.equal (String.sub n i sl) stem || find (i + 1)) in
             find 0)
           names)
       vocab_stems)

(* ------------------------------------------------------------------ *)
(* Pass 1: the call graph and its fixpoints                           *)

(* A node is every [let]-bound name, keyed (file, name): bindings of the
   same name in one file share a key. *)
type node = ann Front.binding

let key (n : node) = (n.file.path, n.name)

type graph = {
  prog : ann Front.program;
  by_key : (string * string, node) Hashtbl.t;  (* key -> each binding *)
  hot : (string * string, unit) Hashtbl.t;
  ticking : (string * string, unit) Hashtbl.t;
  vocab : (string * string, StringSet.t) Hashtbl.t;  (* key -> matched stems *)
}

let nodes_at g k = Hashtbl.find_all g.by_key k
let vocab_at g k = Option.value (Hashtbl.find_opt g.vocab k) ~default:StringSet.empty

(* Keys a node's mentions resolve to: unqualified names within its own
   file, qualified names through the front end's resolver. *)
let edges g (n : node) =
  let from_bare =
    List.map (fun u -> (n.file.path, u)) (StringSet.elements n.mentions.bare)
  in
  let from_qual =
    List.filter_map
      (fun (path, f) ->
        Option.map (fun (m : _ Front.file) -> (m.path, f)) (Front.resolve g.prog n.file path))
      n.mentions.qualified
  in
  List.filter (Hashtbl.mem g.by_key) (from_bare @ from_qual)

(* Does a mention set reach a tick?  Unlike [edges] this includes the
   virtual [Budget.*] primitives, which need no scanned definition. *)
let mentions_ticking g (m : Front.mentions) (file : ann Front.file) =
  List.exists
    (fun (path, f) ->
      ((match List.rev path with "Budget" :: _ -> true | _ -> false)
       && List.mem f budget_fns)
      ||
      match Front.resolve g.prog file path with
      | Some t -> Hashtbl.mem g.ticking (t.path, f)
      | None -> false)
    m.qualified
  || StringSet.exists (fun u -> Hashtbl.mem g.ticking (file.path, u)) m.bare

let build_graph (prog : ann Front.program) =
  let nodes = prog.bindings in
  let g =
    {
      prog;
      by_key = Hashtbl.create 512;
      hot = Hashtbl.create 256;
      ticking = Hashtbl.create 64;
      vocab = Hashtbl.create 256;
    }
  in
  List.iter (fun n -> Hashtbl.add g.by_key (key n) n) nodes;
  (* Hot set: seeds, then forward reachability along mention edges. *)
  List.iter
    (fun (n : node) ->
      if
        List.mem Hot n.anns
        || (n.toplevel && under_lca_dir n.file.path)
        || List.mem (n.file.modname, n.name) default_roots
      then Hashtbl.replace g.hot (key n) ())
    nodes;
  Front.fixpoint nodes (fun n ->
      Hashtbl.mem g.hot (key n)
      && List.fold_left
           (fun changed k ->
             if Hashtbl.mem g.hot k then changed
             else (
               Hashtbl.replace g.hot k ();
               true))
           false (edges g n));
  (* Ticking set: the Budget primitives, then backward closure — a node
     ticks if it mentions a ticking key. *)
  List.iter
    (fun (n : node) ->
      if String.equal n.file.modname "Budget" && List.mem n.name budget_fns then
        Hashtbl.replace g.ticking (key n) ())
    nodes;
  Front.fixpoint nodes (fun n ->
      (not (Hashtbl.mem g.ticking (key n)))
      && mentions_ticking g n.mentions n.file
      && (Hashtbl.replace g.ticking (key n) ();
          true));
  (* Vocabulary set: which traversal stems a node's region mentions,
     closed over same-file callees. *)
  List.iter
    (fun n ->
      Hashtbl.replace g.vocab (key n)
        (StringSet.union (vocab_at g (key n)) (stems_in n.mentions)))
    nodes;
  Front.fixpoint nodes (fun n ->
      let mine = vocab_at g (key n) in
      let grown =
        StringSet.fold
          (fun u acc -> StringSet.union acc (vocab_at g (n.file.path, u)))
          n.mentions.bare mine
      in
      (not (StringSet.equal grown mine))
      && (Hashtbl.replace g.vocab (key n) grown;
          true));
  g

(* ------------------------------------------------------------------ *)
(* Pass 2: loops and idioms                                           *)

type loop = {
  l_loc : Location.t;
  l_all : Parsetree.expression;  (* the whole loop expression *)
  l_bodies : Parsetree.expression list;  (* literal per-iteration bodies *)
  l_in_tick_arg : bool;  (* computes the argument of a Budget charge *)
  l_what : string;  (* "while loop", "List.iter body", ... *)
}

let rec callback_body (e : Parsetree.expression) acc =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) ->
      (* Innermost body of the literal callback. *)
      let rec innermost (b : Parsetree.expression) =
        match b.pexp_desc with
        | Pexp_fun (_, _, _, b) -> innermost b
        | Pexp_newtype (_, b) -> innermost b
        | _ -> b
      in
      innermost body :: acc
  | Pexp_function cases ->
      List.fold_left
        (fun acc (c : Parsetree.case) -> c.pc_rhs :: acc)
        acc cases
  | Pexp_newtype (_, b) -> callback_body b acc
  | _ -> acc

type env = { in_hot : bool; in_tick_arg : bool }

let collect_loops g (fi : ann Front.file) =
  let loops = ref [] in
  let add env ?(what = "loop") loc all bodies =
    if env.in_hot then
      loops :=
        {
          l_loc = loc;
          l_all = all;
          l_bodies = bodies;
          l_in_tick_arg = env.in_tick_arg;
          l_what = what;
        }
        :: !loops
  in
  let rec walk env (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_while (_, body) ->
        add env ~what:"while loop" e.pexp_loc e [ body ];
        walk_children env e
    | Pexp_for (_, _, _, _, body) ->
        add env ~what:"for loop" e.pexp_loc e [ body ];
        walk_children env e
    | Pexp_let (_, vbs, body) ->
        List.iter (walk_vb env) vbs;
        walk env body
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        let q = Front.qualifier txt and f = Longident.last txt in
        let plain = List.map snd args in
        (match q with
        | Some m when is_iterator m f ->
            add env
              ~what:(Printf.sprintf "%s.%s body" m f)
              e.pexp_loc e
              (List.fold_left
                 (fun acc a -> callback_body a acc)
                 [] plain)
        | _ -> ());
        let env' =
          match q with
          | Some "Budget" when List.mem f budget_fns ->
              { env with in_tick_arg = true }
          | _ -> env
        in
        List.iter (walk env') plain
    | _ -> walk_children env e
  and walk_children env e =
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ child -> walk env child);
      }
    in
    Ast_iterator.default_iterator.expr it e
  and walk_vb env (vb : Parsetree.value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } ->
        let k = (fi.path, txt) in
        let env' = { env with in_hot = env.in_hot || Hashtbl.mem g.hot k } in
        (match List.find_opt (fun (n : node) -> n.vb == vb) (nodes_at g k) with
        | Some n when StringSet.mem txt n.mentions.bare ->
            (* Self-recursive: the whole body iterates. *)
            add env'
              ~what:(Printf.sprintf "recursive function '%s'" txt)
              vb.pvb_loc vb.pvb_expr [ vb.pvb_expr ]
        | Some _ | None -> ());
        walk env' vb.pvb_expr
    | _ -> walk env vb.pvb_expr
  in
  let top = { in_hot = false; in_tick_arg = false } in
  let rec item (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter (walk_vb top) vbs
    | Pstr_eval (e, _) -> walk top e
    | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
        List.iter item s
    | _ -> ()
  in
  List.iter item fi.structure;
  !loops

(* The complexity idioms, matched at application heads. *)
let idiom_of q f =
  match (q, f) with
  | None, "@" ->
      Some
        ( "list-append",
          "'@' copies its whole left operand — inside a hot loop this is \
           O(n^2) accumulation (the PR 9 regression class); build with \
           cons / a scratch Int_vec and finish once, or justify with (* \
           xkscost: allow list-append <reason> *)" )
  | Some "List", ("append" | "concat" | "flatten") ->
      Some
        ( "list-append",
          Printf.sprintf
            "List.%s copies entire lists — inside a hot loop this is \
             O(n^2) accumulation; build with cons / a scratch Int_vec and \
             finish once, or justify with (* xkscost: allow list-append \
             <reason> *)"
            f )
  | ( Some "List",
      ( "mem" | "memq" | "mem_assoc" | "mem_assq" | "assoc" | "assq"
      | "assoc_opt" | "assq_opt" | "nth" | "nth_opt" ) ) ->
      Some
        ( "membership-scan",
          Printf.sprintf
            "List.%s scans linearly per call — inside a hot loop this is \
             quadratic membership; use a Hashtbl, a sorted array with \
             Bsearch, or justify with (* xkscost: allow membership-scan \
             <reason> *)"
            f )
  | Some "Hashtbl", "fold" ->
      Some
        ( "hashtbl-fold",
          "Hashtbl.fold under iteration walks the whole table per step; \
           hoist the fold out of the loop or justify with (* xkscost: \
           allow hashtbl-fold <reason> *)" )
  | _ -> None

let scan_idioms ~emit expr =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _) -> (
              match idiom_of (Front.qualifier txt) (Longident.last txt) with
              | Some (rule, msg) -> emit loc rule msg
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr

(* Per-iteration allocations inside a [tight]-annotated loop body. *)
let scan_allocs ~emit expr =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_fun _ | Pexp_function _ ->
              emit e.Parsetree.pexp_loc "loop-alloc"
                "closure allocated on every iteration of a tight loop; \
                 hoist it out of the loop or drop the (* xkscost: tight *) \
                 annotation"
          | Pexp_tuple _ ->
              emit e.Parsetree.pexp_loc "loop-alloc"
                "tuple allocated on every iteration of a tight loop; carry \
                 the components in separate mutable slots or drop the (* \
                 xkscost: tight *) annotation"
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr

let check_file g ~emit (fi : ann Front.file) =
  let emit loc rule msg = emit (Report.at fi.path loc rule msg) in
  let has_ann loc a = List.mem a (Front.anns_at fi loc.Location.loc_start.pos_lnum) in
  let loops = collect_loops g fi in
  (* Same-file loop-context closure: functions a hot loop mentions are
     part of its per-iteration work, so their bodies carry the loop's
     complexity contract too. *)
  let lc = Hashtbl.create 16 in
  let rec mark_lc name =
    let k = (fi.path, name) in
    if Hashtbl.mem g.hot k && not (Hashtbl.mem lc k) then begin
      Hashtbl.replace lc k ();
      List.iter (fun (n : node) -> StringSet.iter mark_lc n.mentions.bare) (nodes_at g k)
    end
  in
  List.iter (fun l -> StringSet.iter mark_lc (Front.mentions l.l_all).bare) loops;
  (* Complexity rules over loop bodies... *)
  List.iter (fun l -> List.iter (scan_idioms ~emit) l.l_bodies) loops;
  (* ...and over the bodies of same-file functions those loops call. *)
  Hashtbl.iter
    (fun k () -> List.iter (fun (n : node) -> scan_idioms ~emit n.vb.pvb_expr) (nodes_at g k))
    lc;
  (* Tight loops: per-iteration allocation checks are opt-in. *)
  List.iter
    (fun l -> if has_ann l.l_loc Tight then List.iter (scan_allocs ~emit) l.l_bodies)
    loops;
  (* Budget discipline: every hot traversal loop must reach a tick. *)
  List.iter
    (fun l ->
      if not l.l_in_tick_arg then begin
        let m = Front.mentions l.l_all in
        let stems =
          StringSet.fold
            (fun u acc -> StringSet.union acc (vocab_at g (fi.path, u)))
            m.bare (stems_in m)
        in
        if (not (StringSet.is_empty stems)) && not (has_ann l.l_loc Unticked) then
          if not (mentions_ticking g m fi) then
            emit l.l_loc "unticked-loop"
              (Printf.sprintf
                 "hot %s traverses index data (%s) but reaches no \
                  Budget.tick/Budget.check on any call path — a request \
                  deadline cannot interrupt it; tick per element or \
                  annotate (* xkscost: unticked <reason> *)"
                 l.l_what
                 (String.concat ", " (StringSet.elements stems)))
      end)
    loops

(* ------------------------------------------------------------------ *)
(* Entry point (loading, suppression, output and exit live in Report) *)

let () =
  Report.main ~tool ~rules:all_rules ~by_position:true
    ~suppresses:(fun a rule -> a = Allow rule)
    grammar
    (fun prog emit ->
      let g = build_graph prog in
      List.iter (check_file g ~emit) prog.files)
