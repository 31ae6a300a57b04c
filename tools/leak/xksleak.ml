(* xksleak — whole-program exception-safety and resource-lifecycle
   analysis.

   The serving and execution layers hold real resources — listener and
   connection fds in lib/serve, Rwlock read/write sections and domain
   pools in lib/exec, channels in the XKSIDX2 persist path — and their
   release-on-raise discipline was previously enforced only by
   convention (hand-placed [Fun.protect] sites).  xksleak makes that
   discipline machine-checked, with the same architecture as the other
   analyzers: a dependency-free scan over the directories on the
   command line (normally [lib bin]) built on the compiler's front end.

   Pass 1 (may-raise fixpoint, cross-module).  Every top-level function
   of every scanned module is classified by whether calling it may
   raise, as a three-level lattice [No < Soft < Hard] closed under
   cross-module calls:

     Hard  an explicit [raise]/[failwith]/[invalid_arg]/[assert], or a
           partial stdlib call ([List.hd], [Hashtbl.find],
           [int_of_string], [open_in], ...), reachable in the body —
           raises the program itself asks for;
     Soft  a [Unix.*] syscall (every one can raise [Unix_error]), a
           [Failpoint.apply]/[read_file]/[trigger] site (raises *by
           injection* — the fault suites arm these with [Raise], so
           exception safety must hold there too), or a call through an
           unknown closure (a parameter or captured function value —
           the caller cannot bound what it raises).

   Levels propagate through same-file and cross-module calls (names
   resolved by the shared front end, [Xks_report.Front]) and through
   function literals passed as arguments, to a fixpoint.  A
   [try]/[match ... with exception] is assumed to cover the raises of
   the expression it guards (possibility, not exception identity — this
   is a linter); handler bodies still contribute.  The annotation

     (* xksleak: noraise *)

   on a function's declaration line (or the line above) asserts it does
   not raise: callers treat it as [No], and the assertion is verified
   against the fixpoint — a [Hard] body contradicts it and is reported
   [noraise-violated].  ([Soft] does not: excusing a benign syscall or
   a callback contractually forbidden from raising is exactly what the
   annotation is for.)

   Pass 2 (resource regions, per function).  An acquisition opens a
   region that must reach its release on every path, including every
   raising one:

     acquisition                        release
     [Unix.openfile]/[socket]/[accept]  [Unix.close]
     [open_in*]/[open_out*]             [close_in*]/[close_out*]
     [Mutex.lock m]                     [Mutex.unlock m]
     [Rwlock.read_lock l]               [Rwlock.read_unlock l]
     [Rwlock.write_lock l]              [Rwlock.write_unlock l]
     [Pool.create]                      [Pool.shutdown]

   (fd/channel regions open at a [let]-binding or a [match] on the
   acquisition; lock regions open in statement position, named by the
   last component of the lock's access path, like xksrace's mutexes).
   Inside an open region, any may-raise call (pass 1) is a
   [leak-on-raise] finding unless the region's release is exception-
   safe at that point.  The recognized safe forms:

   - [Fun.protect ~finally:F body] where [F] (a literal or a same-
     function [let]-bound closure) releases the region: the region is
     considered released at the protect site; raising inside [F]
     *before* its release is still flagged — that window is real;
   - a [try]/[match ... with exception] handler: the guarded
     expression's raises are covered (the create-bind-listen
     release-and-reraise idiom);
   - ownership handoff, via the annotation grammar below.

   A release of an already-released resource is [fd-double-close]; a
   region with no release, no handoff and no tail return is
   [unreleased].

   Annotation grammar (declaration line or the line above; [transfers]
   on the statement line it blesses):

     (* xksleak: noraise *)         function: does not raise (verified)
     (* xksleak: owns <p> *)        function: takes ownership of the
                                    resource passed as parameter <p> —
                                    its body must release it on every
                                    path (a region opens at entry), and
                                    a call to it releases the caller's
                                    region passed in that position
     (* xksleak: releases <p> *)    function: releasing <p> is a
                                    documented effect of calling it —
                                    caller-side only, no region opens
                                    in the body (for helpers whose
                                    release is conditional or partial)
     (* xksleak: transfers <r> *)   statement: ownership of <r> leaves
                                    this function here (closure capture
                                    into a pool task, storage into a
                                    connection table); the single close
                                    site lives with the new owner

   A function's tail expression mentioning the resource is an implicit
   transfer (the acquire-configure-return builder idiom).

   Known approximations, by design: resources are matched by name, not
   aliasing; a handler covers raise possibility, not identity; region
   effects inside a [try] scrutinee survive, handler effects do not;
   function values passed as bare identifiers contribute no raises at
   the application that receives them (direct calls of unknowns do);
   acquisitions buried in larger expressions are not tracked.  Loading,
   resolution, the annotation grammar, the fixpoint, output, the
   [--json] schema and the 0/1/2 exit contract are the shared analyzer
   layer ([Xks_report.Front] and [Xks_report.Report]). *)

module Front = Xks_report.Front
module Report = Xks_report.Report
module StringSet = Front.StringSet

let tool = "xksleak"

(* ------------------------------------------------------------------ *)
(* Findings                                                           *)

type kind = Leak_on_raise | Unreleased | Double_close | Noraise_violated

let kind_id = function
  | Leak_on_raise -> "leak-on-raise"
  | Unreleased -> "unreleased"
  | Double_close -> "fd-double-close"
  | Noraise_violated -> "noraise-violated"

(* ------------------------------------------------------------------ *)
(* The raise lattice                                                  *)

type level = No | Soft | Hard

let lmax a b =
  match (a, b) with
  | Hard, _ | _, Hard -> Hard
  | Soft, _ | _, Soft -> Soft
  | No, No -> No

(* Bare identifiers that raise when called (partial stdlib). *)
let bare_raising =
  [
    "failwith"; "invalid_arg"; "raise"; "raise_notrace";
    "int_of_string"; "float_of_string"; "char_of_int"; "bool_of_string";
    "input_line"; "input_value"; "really_input_string";
    "open_in"; "open_in_bin"; "open_out"; "open_out_bin";
  ]

(* Explicit raise forms among the bare list: these are Hard even for a
   noraise function (the others are too — the split is only used for
   messages). *)

(* Qualified (module, function) pairs that raise when called. *)
let qualified_raising =
  [
    ("List", "hd"); ("List", "tl"); ("List", "nth"); ("List", "find");
    ("Hashtbl", "find"); ("Option", "get"); ("Queue", "pop");
    ("Queue", "take"); ("Queue", "peek"); ("Stack", "pop"); ("Stack", "top");
    ("Sys", "remove"); ("Sys", "rename"); ("Sys", "getenv");
    ("Sys", "readdir"); ("Sys", "is_directory"); ("Filename", "chop_extension");
    ("String", "index"); ("List", "assoc"); ("List", "combine");
  ]

(* Failpoint entry points: raise by injection. *)
let failpoint_fns = [ "apply"; "read_file"; "trigger" ]

(* ------------------------------------------------------------------ *)
(* Annotations                                                        *)

type ann = Noraise | Owns of string | Releases of string | Transfers of string

let grammar =
  Front.
    [
      ("noraise", Flag Noraise);
      ("owns", Name (fun p -> Owns p));
      ("releases", Name (fun p -> Releases p));
      ("transfers", Name (fun p -> Transfers p));
    ]

(* Last name on an access path ([Front.path_name]): [s.lock] and
   [done_mutex] name the resource "lock" / "done_mutex" (same
   convention as xksrace). *)
let path_name = Front.path_name
let peel = Front.peel
let peel_fun = Front.peel_fun
let pattern_vars = Front.pattern_vars

(* ------------------------------------------------------------------ *)
(* Pass 1: the function table and the may-raise fixpoint              *)

type fn = {
  b : ann Front.binding;  (* name, parameters, peeled body, location *)
  fn_noraise : bool;
  fn_owns : string list;  (* parameter names owned *)
  fn_releases : string list;  (* parameter names released *)
  mutable fn_level : level;  (* fixpoint value, noraise NOT applied *)
}

(* The whole-program view pass 2 also uses: the loaded program and its
   top-level functions, (file, name) -> first definition. *)
type program = {
  front : ann Front.program;
  table : (string * string, fn) Hashtbl.t;
}

(* A scanned function a bare or qualified name written in [fi] denotes. *)
let lookup prog (fi : ann Front.file) (txt : Longident.t) =
  match txt with
  | Lident name -> Hashtbl.find_opt prog.table (fi.path, name)
  | Ldot (path, f) ->
      Option.bind
        (Front.resolve prog.front fi (Longident.flatten path))
        (fun (m : ann Front.file) -> Hashtbl.find_opt prog.table (m.path, f))
  | Lapply _ -> None

(* Effective level seen by callers: noraise pins it to No. *)
let effective fn = if fn.fn_noraise then No else fn.fn_level

(* Scope for the level computation: names that shadow the function
   table.  [sc_opaque] holds parameters and pattern-bound values — an
   unknown closure when called; [sc_lambdas] holds let-bound function
   literals of the enclosing body. *)
type scope = {
  sc_opaque : StringSet.t;
  sc_lambdas : (string * Parsetree.expression) list;
}

let scope_empty = { sc_opaque = StringSet.empty; sc_lambdas = [] }

let scope_add_opaque names sc =
  { sc with sc_opaque = List.fold_right StringSet.add names sc.sc_opaque }

(* Drop a lambda binding while descending into its own body, so a
   [let rec] local loop's self-call bottoms out instead of recursing
   forever in the analyzer. *)
let scope_without name sc =
  { sc with sc_lambdas = List.remove_assoc name sc.sc_lambdas }

(* May the application of [head] raise, ignoring argument closures?
   Returns the level plus a human description of the source. *)
let classify_head prog fi sc (head : Parsetree.expression) =
  match (peel head).pexp_desc with
  | Pexp_ident { txt = Lident name; _ } ->
      if List.exists (String.equal name) bare_raising then
        (Hard, Printf.sprintf "'%s'" name)
      else if StringSet.mem name sc.sc_opaque then
        (Soft, Printf.sprintf "unknown closure '%s'" name)
      else (
        match List.assoc_opt name sc.sc_lambdas with
        | Some _ -> (No, "")  (* handled by the caller via lambda levels *)
        | None -> (
            match lookup prog fi (Lident name) with
            | Some fn ->
                ( effective fn,
                  Printf.sprintf "'%s' (may raise, per the fixpoint)" name )
            | None -> (No, "")))
  | Pexp_ident { txt; _ } -> (
      let f = Longident.last txt in
      match Front.qualifier txt with
      | Some "Unix" -> (Soft, Printf.sprintf "'Unix.%s' (syscall)" f)
      | Some "Failpoint" when List.exists (String.equal f) failpoint_fns ->
          (Soft, Printf.sprintf "'Failpoint.%s' (raises by injection)" f)
      | Some q when List.exists
                      (fun (m, g) -> String.equal m q && String.equal g f)
                      qualified_raising ->
          (Hard, Printf.sprintf "'%s.%s' (partial)" q f)
      | Some q -> (
          match lookup prog fi txt with
          | Some fn ->
              ( effective fn,
                Printf.sprintf "'%s.%s' (may raise, per the fixpoint)" q f )
          | None -> (No, ""))
      | None -> (No, ""))
  | _ -> (No, "")

let bind_lambdas sc vbs =
  List.fold_left
    (fun sc (vb : Parsetree.value_binding) ->
      match (vb.pvb_pat.ppat_desc, (peel vb.pvb_expr).pexp_desc) with
      | Ppat_var { txt; _ }, (Pexp_fun _ | Pexp_function _) ->
          { sc with sc_lambdas = (txt, vb.pvb_expr) :: sc.sc_lambdas }
      | _ -> sc)
    sc vbs

(* Level of an expression: the worst raise reachable by evaluating it
   now.  Function literals in value position are deferred (level No);
   literals passed as call arguments contribute (the callee is assumed
   to run them). *)
let rec level_of prog fi sc (e : Parsetree.expression) : level =
  let go = level_of prog fi in
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> No
  | Pexp_apply (head, args) ->
      let base, _ = classify_head prog fi sc head in
      let head_lambda =
        match (peel head).pexp_desc with
        | Pexp_ident { txt = Lident name; _ } -> (
            match List.assoc_opt name sc.sc_lambdas with
            | Some body -> lambda_level prog fi (scope_without name sc) body
            | None -> No)
        | _ -> No
      in
      List.fold_left
        (fun acc (_, (a : Parsetree.expression)) ->
          let contrib =
            match (peel a).pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> lambda_level prog fi sc a
            | Pexp_ident { txt = Lident x; _ } -> (
                match List.assoc_opt x sc.sc_lambdas with
                | Some body -> lambda_level prog fi (scope_without x sc) body
                | None -> (
                    match lookup prog fi (Lident x) with
                    | Some fn when not (StringSet.mem x sc.sc_opaque) ->
                        effective fn
                    | Some _ | None -> No))
            | _ -> go sc a
          in
          lmax acc contrib)
        (lmax base head_lambda) args
  | Pexp_let (_, vbs, body) ->
      let sc' = bind_lambdas sc vbs in
      let rhs =
        List.fold_left
          (fun acc (vb : Parsetree.value_binding) ->
            match (peel vb.pvb_expr).pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> acc
            | _ -> lmax acc (go sc vb.pvb_expr))
          No vbs
      in
      let sc' =
        scope_add_opaque
          (List.concat_map
             (fun (vb : Parsetree.value_binding) ->
               match ((peel vb.pvb_expr).pexp_desc, vb.pvb_pat.ppat_desc) with
               | (Pexp_fun _ | Pexp_function _), _ -> []
               | _, Ppat_var { txt; _ } -> [ txt ]
               | _ -> pattern_vars vb.pvb_pat)
             vbs)
          sc'
      in
      lmax rhs (go sc' body)
  | Pexp_sequence (a, b) -> lmax (go sc a) (go sc b)
  | Pexp_ifthenelse (c, a, b) ->
      lmax (go sc c)
        (lmax (go sc a) (match b with Some b -> go sc b | None -> No))
  | Pexp_match (scrut, cases) ->
      let has_exc =
        List.exists
          (fun (c : Parsetree.case) ->
            match c.pc_lhs.ppat_desc with Ppat_exception _ -> true | _ -> false)
          cases
      in
      let scrut_level = if has_exc then No else go sc scrut in
      List.fold_left
        (fun acc (c : Parsetree.case) ->
          let sc' = scope_add_opaque (pattern_vars c.pc_lhs) sc in
          lmax acc
            (lmax
               (match c.pc_guard with Some g -> go sc' g | None -> No)
               (go sc' c.pc_rhs)))
        scrut_level cases
  | Pexp_try (_, cases) ->
      List.fold_left
        (fun acc (c : Parsetree.case) ->
          let sc' = scope_add_opaque (pattern_vars c.pc_lhs) sc in
          lmax acc (go sc' c.pc_rhs))
        No cases
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
    -> Hard
  | Pexp_assert cond -> lmax Hard (go sc cond)
  | Pexp_while (c, body) -> lmax (go sc c) (go sc body)
  | Pexp_for (_, a, b, _, body) -> lmax (go sc a) (lmax (go sc b) (go sc body))
  | _ ->
      (* structural fallback: max over immediate subexpressions *)
      let acc = ref No in
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ child -> acc := lmax !acc (go sc child));
        }
      in
      Ast_iterator.default_iterator.expr it e;
      !acc

and lambda_level prog fi sc (e : Parsetree.expression) =
  let params, core = peel_fun e in
  match (params, (peel e).pexp_desc) with
  | [], Pexp_function cases ->
      List.fold_left
        (fun acc (c : Parsetree.case) ->
          let sc' = scope_add_opaque (pattern_vars c.pc_lhs) sc in
          lmax acc (level_of prog fi sc' c.pc_rhs))
        No cases
  | [], _ -> level_of prog fi sc e
  | params, _ -> level_of prog fi (scope_add_opaque params sc) core

(* Iterate the per-function level to a fixpoint (monotone over a
   3-level lattice: terminates). *)
let compute_fixpoint prog fns =
  Front.fixpoint fns (fun fn ->
      let sc = scope_add_opaque fn.b.params scope_empty in
      let l = level_of prog fn.b.file sc fn.b.body in
      l <> fn.fn_level
      && (fn.fn_level <- l;
          true))

(* ------------------------------------------------------------------ *)
(* Pass 2: resource regions                                           *)

type res_kind = Fd | Channel | Lock | Pool_res

let res_kind_name = function
  | Fd -> "fd"
  | Channel -> "channel"
  | Lock -> "lock"
  | Pool_res -> "pool"

(* Acquisition heads.  Bare [read_lock]/[write_lock] are accepted
   unqualified so rwlock.ml itself is scanned; the names are
   distinctive enough that this costs nothing elsewhere. *)
let acquisition_of (head : Parsetree.expression) =
  match (peel head).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let f = Longident.last txt in
      match (Front.qualifier txt, f) with
      | Some "Unix", ("openfile" | "socket" | "accept" | "socketpair" | "dup")
        -> Some Fd
      | None, ("open_in" | "open_in_bin" | "open_out" | "open_out_bin") ->
          Some Channel
      | Some "Mutex", "lock" -> Some Lock
      | (Some "Rwlock" | None), ("read_lock" | "write_lock") -> Some Lock
      | Some "Pool", "create" -> Some Pool_res
      | _ -> None)
  | _ -> None

(* Does applying [head] release a resource, and which kind? *)
let release_of (head : Parsetree.expression) =
  match (peel head).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let f = Longident.last txt in
      match (Front.qualifier txt, f) with
      | Some "Unix", "close" -> Some Fd
      | None, ("close_in" | "close_in_noerr" | "close_out" | "close_out_noerr")
        -> Some Channel
      | Some "Mutex", "unlock" -> Some Lock
      | (Some "Rwlock" | None), ("read_unlock" | "write_unlock") -> Some Lock
      | Some "Pool", "shutdown" -> Some Pool_res
      | _ -> None)
  | _ -> None

type region = {
  r_name : string;
  r_kind : res_kind;
  r_line : int;  (* acquisition line, for messages *)
}

(* The walk environment: open regions, names already released (for
   double-close), and the level-computation scope. *)
type env = {
  regions : region list;
  closed : StringSet.t;
  scope : scope;
}

let open_region env name kind line =
  if List.exists (fun r -> String.equal r.r_name name) env.regions then env
  else
    {
      env with
      regions = { r_name = name; r_kind = kind; r_line = line } :: env.regions;
      closed = StringSet.remove name env.closed;
    }

let close_region ~transfer env name =
  {
    env with
    regions = List.filter (fun r -> not (String.equal r.r_name name)) env.regions;
    closed = (if transfer then env.closed else StringSet.add name env.closed);
  }

let find_region env name =
  List.find_opt (fun r -> String.equal r.r_name name) env.regions

(* join after a branch: a region is open if open on any surviving
   path (conservative for leak checks), closed only if closed on all *)
let join a b =
  {
    regions =
      a.regions
      @ List.filter
          (fun r ->
            not (List.exists (fun q -> String.equal q.r_name r.r_name) a.regions))
          b.regions;
    closed = StringSet.inter a.closed b.closed;
    scope = a.scope;
  }

(* The syntactic tail (return) position of a body: the expression a
   caller receives, used for the implicit transfer-by-return rule (a
   builder that returns the resource hands ownership to its caller). *)
let rec tail_expr (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_sequence (_, b) -> tail_expr b
  | Pexp_let (_, _, body) -> tail_expr body
  | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> tail_expr inner
  | _ -> e

let check_file prog ~emit (fi : ann Front.file) fns =
  let emit loc kind msg = emit (Report.at fi.path loc (kind_id kind) msg) in
  (* transfers annotations by line *)
  let transfers_at line =
    List.filter_map
      (function Transfers r -> Some r | _ -> None)
      (Front.anns_at fi line)
  in
  (* Does [e] syntactically release resource [name] anywhere inside?
     Used to resolve a [Fun.protect] finalizer's release set. *)
  let releases_in (e : Parsetree.expression) name =
    let found = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it child ->
            (match child.Parsetree.pexp_desc with
            | Pexp_apply (head, args) when release_of head <> None ->
                List.iter
                  (fun (_, a) ->
                    if String.equal (path_name a) name then found := true)
                  args
            | _ -> ());
            Ast_iterator.default_iterator.expr it child);
      }
    in
    it.expr it e;
    !found
  in
  let resolve_lambda env (e : Parsetree.expression) =
    match (peel e).pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> Some e
    | Pexp_ident { txt = Lident x; _ } -> List.assoc_opt x env.scope.sc_lambdas
    | _ -> None
  in
  let leak_msg region desc =
    Printf.sprintf
      "call to %s while %s '%s' (acquired at line %d) has no exception-safe \
       release; wrap the region in Fun.protect, release-and-reraise, or \
       annotate the handoff ((* xksleak: transfers %s *))"
      desc
      (res_kind_name region.r_kind)
      region.r_name region.r_line region.r_name
  in
  (* Inside a try / match-with-exception scrutinee, raise possibility
     is covered by the handlers: leak findings are suppressed there
     (other kinds, like a double close, still count). *)
  let suppress_leaks = ref false in
  (* Emit a leak finding at [loc] for every open region. *)
  let flag_raise env (loc : Location.t) desc =
    if not !suppress_leaks then
      List.iter (fun r -> emit loc Leak_on_raise (leak_msg r desc)) env.regions
  in
  (* Scan an expression for raising sites against the current open
     regions without changing region state (used for subexpressions
     the walker does not model structurally). *)
  let rec scan env (e : Parsetree.expression) =
    let case_scope (c : Parsetree.case) =
      { env with scope = scope_add_opaque (pattern_vars c.pc_lhs) env.scope }
    in
    match e.pexp_desc with
    | _ when env.regions = [] -> ()
    | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> ()
    | Pexp_try (_, cases) ->
        (* the scrutinee's raises are covered; handler bodies still run
           inside the region *)
        List.iter (fun (c : Parsetree.case) -> scan (case_scope c) c.pc_rhs) cases
    | Pexp_match (scrut, cases)
      when List.exists
             (fun (c : Parsetree.case) ->
               match c.pc_lhs.ppat_desc with
               | Ppat_exception _ -> true
               | _ -> false)
             cases ->
        ignore scrut;
        List.iter (fun (c : Parsetree.case) -> scan (case_scope c) c.pc_rhs) cases
    | Pexp_match (scrut, cases) ->
        scan env scrut;
        List.iter
          (fun (c : Parsetree.case) ->
            let env' = case_scope c in
            (match c.pc_guard with Some g -> scan env' g | None -> ());
            scan env' c.pc_rhs)
          cases
    | Pexp_let (_, vbs, body) ->
        let env = { env with scope = bind_lambdas env.scope vbs } in
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match (peel vb.pvb_expr).pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> ()
            | _ -> scan env vb.pvb_expr)
          vbs;
        let env =
          {
            env with
            scope =
              scope_add_opaque
                (List.concat_map
                   (fun (vb : Parsetree.value_binding) ->
                     pattern_vars vb.pvb_pat)
                   vbs)
                env.scope;
          }
        in
        scan env body
    | Pexp_apply (head, args) ->
        (let lvl, desc = classify_head prog fi env.scope head in
         let lvl, desc =
           if lvl <> No then (lvl, desc)
           else
             match (peel head).pexp_desc with
             | Pexp_ident { txt = Lident name; _ } -> (
                 match List.assoc_opt name env.scope.sc_lambdas with
                 | Some body ->
                     ( lambda_level prog fi
                         (scope_without name env.scope)
                         body,
                       Printf.sprintf "local function '%s'" name )
                 | None -> (No, ""))
             | _ -> (No, "")
         in
         match lvl with
         | No -> ()
         | Soft | Hard -> flag_raise env head.pexp_loc desc);
        List.iter
          (fun (_, (a : Parsetree.expression)) ->
            match (peel a).pexp_desc with
            | Pexp_fun _ | Pexp_function _ ->
                (* a literal callback handed to the callee runs inside
                   the region *)
                let params, core = peel_fun a in
                scan { env with scope = scope_add_opaque params env.scope } core
            | _ -> scan env a)
          args;
        scan env (peel head)
    | _ ->
        let it =
          {
            Ast_iterator.default_iterator with
            expr = (fun _ child -> scan env child);
          }
        in
        Ast_iterator.default_iterator.expr it e
  in
  (* The structural walk.  Returns the environment after the
     expression plus whether the path definitely terminated (raise or
     exit), in which case open regions are not the caller's concern on
     that path. *)
  let rec walk env (e : Parsetree.expression) : env * bool =
    (* a transfers annotation blesses the statement on its line *)
    let env =
      List.fold_left
        (fun env r ->
          if find_region env r <> None then close_region ~transfer:true env r
          else env)
        env
        (transfers_at (e.pexp_loc.loc_start.pos_lnum))
    in
    match e.pexp_desc with
    | Pexp_sequence (a, b) ->
        let env, t = walk env a in
        if t then (env, true) else walk env b
    | Pexp_let (_, vbs, body) ->
        let env = { env with scope = bind_lambdas env.scope vbs } in
        let env =
          List.fold_left
            (fun env (vb : Parsetree.value_binding) ->
              walk_binding env vb)
            env vbs
        in
        walk env body
    | Pexp_ifthenelse (c, a, b) ->
        scan env c;
        let ea, ta = walk env a in
        let eb, tb = match b with Some b -> walk env b | None -> (env, false) in
        if ta && tb then (ea, true)
        else if ta then (eb, false)
        else if tb then (ea, false)
        else (join ea eb, false)
    | Pexp_match (scrut, cases) ->
        let has_exc =
          List.exists
            (fun (c : Parsetree.case) ->
              match c.pc_lhs.ppat_desc with
              | Ppat_exception _ -> true
              | _ -> false)
            cases
        in
        let env_scrut =
          if has_exc then
            (* raises of the scrutinee are covered by the handlers *)
            let e', _ = walk_protected env scrut in
            e'
          else begin
            match acquisition_of_app scrut with
            | Some _ -> env  (* region opens per case, below *)
            | None ->
                scan env scrut;
                env
          end
        in
        let acq = acquisition_of_app scrut in
        let branches =
          List.map
            (fun (c : Parsetree.case) ->
              let env_case =
                { env_scrut with
                  scope = scope_add_opaque (pattern_vars c.pc_lhs) env_scrut.scope }
              in
              let env_case =
                match (acq, c.pc_lhs.ppat_desc) with
                | Some kind, Ppat_var { txt; _ } ->
                    open_region env_case txt kind (c.pc_lhs.ppat_loc.loc_start.pos_lnum)
                | Some kind, Ppat_tuple ({ ppat_desc = Ppat_var { txt; _ }; _ } :: _)
                  -> open_region env_case txt kind (c.pc_lhs.ppat_loc.loc_start.pos_lnum)
                | _ -> env_case
              in
              (match c.pc_guard with Some g -> scan env_case g | None -> ());
              walk env_case c.pc_rhs)
            cases
        in
        join_branches env branches
    | Pexp_try (scrut, cases) ->
        let env', _ = walk_protected env scrut in
        List.iter
          (fun (c : Parsetree.case) ->
            let env_case =
              { env with scope = scope_add_opaque (pattern_vars c.pc_lhs) env.scope }
            in
            ignore (walk env_case c.pc_rhs))
          cases;
        (env', false)
    | Pexp_apply (head, args) -> walk_apply env e head args
    | Pexp_fun _ | Pexp_function _ -> (env, false)
    | Pexp_while (c, body) ->
        scan env c;
        let _ = walk env body in
        (env, false)
    | Pexp_for (_, a, b, _, body) ->
        scan env a;
        scan env b;
        let _ = walk env body in
        (env, false)
    | Pexp_constraint (inner, _) | Pexp_open (_, inner) -> walk env inner
    | _ ->
        scan env e;
        (env, false)
  (* walk a try/match-with-exception scrutinee: region effects apply,
     raising sites are covered by the handlers *)
  and walk_protected env scrut =
    let prev = !suppress_leaks in
    suppress_leaks := true;
    let result = walk env scrut in
    suppress_leaks := prev;
    result
  and acquisition_of_app (e : Parsetree.expression) =
    match (peel e).pexp_desc with
    | Pexp_apply (head, _) -> acquisition_of head
    | _ -> None
  and join_branches env = function
    | [] -> (env, false)
    | branches -> (
        match List.filter (fun (_, t) -> not t) branches with
        | [] -> (fst (List.hd branches), true)
        | (e0, _) :: rest ->
            (List.fold_left (fun acc (e, _) -> join acc e) e0 rest, false))
  and walk_binding env (vb : Parsetree.value_binding) =
    match (peel vb.pvb_expr).pexp_desc with
    | Pexp_fun _ | Pexp_function _ ->
        (* a local closure: analyze its body in a fresh region scope —
           it runs later, under whoever calls it *)
        let params, core = peel_fun vb.pvb_expr in
        let fresh =
          {
            regions = [];
            closed = StringSet.empty;
            scope = scope_add_opaque params env.scope;
          }
        in
        ignore (walk fresh core);
        env
    | _ -> (
        let rhs = peel vb.pvb_expr in
        (* peel a [try acq with handlers] guard off an acquisition *)
        let rhs_core =
          match rhs.pexp_desc with Pexp_try (s, _) -> peel s | _ -> rhs
        in
        match (vb.pvb_pat.ppat_desc, acquisition_of_app rhs_core) with
        | Ppat_var { txt; _ }, Some kind ->
            scan env rhs_core;  (* acquiring may itself raise: flags others *)
            open_region
              { env with scope = scope_add_opaque [ txt ] env.scope }
              txt kind (vb.pvb_loc.loc_start.pos_lnum)
        | Ppat_tuple ({ ppat_desc = Ppat_var { txt; _ }; _ } :: _), Some kind ->
            scan env rhs_core;
            open_region
              { env with scope = scope_add_opaque [ txt ] env.scope }
              txt kind (vb.pvb_loc.loc_start.pos_lnum)
        | pat, _ ->
            let env', _ = walk env rhs in
            let names =
              match pat with
              | Ppat_var { txt; _ } -> [ txt ]
              | _ -> pattern_vars vb.pvb_pat
            in
            { env' with scope = scope_add_opaque names env'.scope })
  and walk_apply env e head args =
    let plain =
      List.filter_map (function (Asttypes.Nolabel, a) -> Some a | _ -> None) args
    in
    match (peel head).pexp_desc with
    (* exit terminates the process; the OS reclaims everything *)
    | Pexp_ident { txt = Lident "exit"; _ } -> (env, true)
    | Pexp_ident { txt = Lident ("raise" | "raise_notrace" | "failwith" | "invalid_arg"); loc }
      ->
        flag_raise env loc "an explicit raise";
        (env, true)
    | Pexp_ident { txt; _ }
      when (match Front.qualifier txt with Some "Fun" -> true | _ -> false)
           && String.equal (Longident.last txt) "protect" -> (
        let finally =
          List.find_map
            (function
              | (Asttypes.Labelled "finally", f) -> Some f
              | (Asttypes.Optional "finally", f) -> Some f
              | _ -> None)
            args
        in
        let env =
          match Option.map (resolve_lambda env) finally with
          | Some (Some flam) ->
              (* the finalizer runs with the regions still held: walk it
                 (raising before the release is flagged), then retire
                 every region it releases *)
              let _, fin_core = peel_fun flam in
              let releases_regions =
                List.filter (fun r -> releases_in fin_core r.r_name) env.regions
              in
              let _ = walk env fin_core in
              List.fold_left
                (fun env r -> close_region ~transfer:false env r.r_name)
                env releases_regions
          | _ -> env
        in
        (* the protected body runs now, under whatever is still open *)
        match plain with
        | body :: _ -> (
            match resolve_lambda env body with
            | Some blam ->
                let params, core = peel_fun blam in
                let _ =
                  walk { env with scope = scope_add_opaque params env.scope } core
                in
                (env, false)
            | None ->
                scan env body;
                (env, false))
        | [] -> (env, false))
    | _ -> (
        (* a direct release? *)
        match release_of head with
        | Some _ -> (
            match plain with
            | arg :: _ -> (
                let name = path_name arg in
                match find_region env name with
                | Some _ -> (close_region ~transfer:false env name, false)
                | None ->
                    if StringSet.mem name env.closed then
                      emit head.pexp_loc Double_close
                        (Printf.sprintf
                           "'%s' releases '%s', which was already released on \
                            this path — a double close can hit a recycled \
                            descriptor; make one owner responsible for the \
                            single close site"
                           (path_name head) name);
                    (env, false))
            | [] -> (env, false))
        | None -> (
            (* a lock acquisition in statement position? *)
            match acquisition_of head with
            | Some Lock -> (
                match plain with
                | m :: _ ->
                    ( open_region env (path_name m) Lock (e.pexp_loc.loc_start.pos_lnum),
                      false )
                | [] -> (env, false))
            | Some _ | None ->
                (* calls to owns/releases-annotated functions hand
                   regions off; everything else is scanned for raises *)
                let callee =
                  match (peel head).pexp_desc with
                  | Pexp_ident { txt = Lident name; _ }
                    when StringSet.mem name env.scope.sc_opaque ->
                      None
                  | Pexp_ident { txt; _ } -> lookup prog fi txt
                  | _ -> None
                in
                let env =
                  match callee with
                  | Some fn when fn.fn_owns <> [] || fn.fn_releases <> [] ->
                      List.fold_left
                        (fun env p ->
                          match
                            List.find_index (String.equal p) fn.b.params
                          with
                          | None -> env
                          | Some i -> (
                              match List.nth_opt plain i with
                              | None -> env
                              | Some arg ->
                                  let name = path_name arg in
                                  if find_region env name <> None then
                                    close_region ~transfer:true env name
                                  else env))
                        env
                        (fn.fn_owns @ fn.fn_releases)
                  | Some _ | None -> env
                in
                scan env e;
                (env, false)))
  in
  (* Walk every top-level function of the file. *)
  List.iter
    (fun fn ->
      let env0 =
        {
          regions = [];
          closed = StringSet.empty;
          scope = scope_add_opaque fn.b.params scope_empty;
        }
      in
      (* an owns-annotated function starts with its parameter's region
         open: the body must release or hand it off on every path *)
      let env0 =
        List.fold_left
          (fun env p -> open_region env p Fd fn.b.line)
          env0 fn.fn_owns
      in
      let env_end, terminated = walk env0 fn.b.body in
      if not terminated then begin
        let returned = (Front.mentions (tail_expr fn.b.body)).bare in
        List.iter
          (fun r ->
            if not (StringSet.mem r.r_name returned) then
              emit fn.b.body.pexp_loc Unreleased
                (Printf.sprintf
                   "%s '%s' acquired at line %d in '%s' does not reach a \
                    release, handoff or return on the normal path; close it, \
                    or annotate the handoff ((* xksleak: owns/transfers %s *))"
                   (res_kind_name r.r_kind) r.r_name r.r_line fn.b.name
                   r.r_name))
          env_end.regions
      end)
    fns

(* ------------------------------------------------------------------ *)
(* noraise verification                                               *)

let noraise_findings ~emit fns =
  List.iter
    (fun fn ->
      if fn.fn_noraise && fn.fn_level = Hard then
        emit
          {
            (Report.at fn.b.file.path fn.b.vb.pvb_pat.ppat_loc
               (kind_id Noraise_violated)
               (Printf.sprintf
                  "'%s' is annotated noraise but its body can raise on its own \
                   (an explicit raise or a partial call, per the may-raise \
                   fixpoint); fix the body or drop the annotation"
                  fn.b.name))
            with
            line = fn.b.line;
          })
    fns

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)

(* Every top-level function; an owns/releases annotation must name one
   of its parameters. *)
let fn_of (b : ann Front.binding) =
  let owns = List.filter_map (function Owns p -> Some p | _ -> None) b.anns in
  let releases = List.filter_map (function Releases p -> Some p | _ -> None) b.anns in
  List.iter
    (fun p ->
      if not (List.mem p b.params) then begin
        Printf.eprintf
          "xksleak: %s: line %d: annotation names '%s', which is not a \
           parameter of '%s'\n"
          b.file.path b.line p b.name;
        exit 2
      end)
    (owns @ releases);
  {
    b;
    fn_noraise = List.mem Noraise b.anns;
    fn_owns = owns;
    fn_releases = releases;
    fn_level = No;
  }

let () =
  Report.main ~tool grammar (fun front emit ->
      let fns =
        List.filter_map
          (fun (b : ann Front.binding) ->
            if b.toplevel && b.params <> [] then Some (fn_of b) else None)
          front.bindings
      in
      let prog = { front; table = Hashtbl.create 256 } in
      (* first definition wins on duplicate names within a file *)
      List.iter
        (fun fn ->
          let key = (fn.b.file.path, fn.b.name) in
          if not (Hashtbl.mem prog.table key) then Hashtbl.replace prog.table key fn)
        fns;
      compute_fixpoint prog fns;
      noraise_findings ~emit fns;
      List.iter
        (fun (fi : ann Front.file) ->
          check_file prog ~emit fi (List.filter (fun fn -> fn.b.file == fi) fns))
        front.files)
