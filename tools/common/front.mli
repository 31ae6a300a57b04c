(** The front end shared by the xks analyzers: one walk, read, parse and
    annotation scan per run; module identity and name resolution; the
    table of [let]-bound names with their mentions; the annotation
    grammar; and the iterate-until-stable fixpoint. *)

module StringSet : Set.S with type elt = string

(** {1 Annotation grammar}

    An annotation is the comment [(* xks<tool>: <keyword> <args> *)] on
    the line it concerns or the line above.  Each tool declares its
    keywords and what each takes. *)

type 'a form =
  | Flag of 'a  (** nothing after the keyword *)
  | Name of (string -> 'a)  (** a name; later words are ignored *)
  | Rule of (string -> 'a)  (** a known rule id, then a reason *)
  | Reason of 'a  (** a reason *)

type 'a grammar = (string * 'a form) list

exception Bad_annotation of int * string
(** [(line, explanation)]: an unknown keyword or rule id, a missing
    name or reason, or an argument to a [Flag]. *)

val scan : tool:string -> rules:string list -> 'a grammar -> string -> (int * 'a) list
(** Every annotation of [tool] in a source text, with its 1-based line.
    [rules] are the ids a [Rule] keyword may name. *)

(** {1 Loaded program} *)

type 'a file = {
  path : string;  (** identifies the module *)
  modname : string;  (** capitalized basename *)
  structure : Parsetree.structure;
  anns : (int, 'a) Hashtbl.t;  (** line -> each annotation written there *)
  aliases : (string * string list) list;  (** [module X = P.Q] *)
}

type mentions = {
  bare : StringSet.t;  (** unqualified identifiers *)
  qualified : (string list * string) list;  (** [(module path, name)] *)
  fields : StringSet.t;  (** record fields read or written *)
}

type 'a binding = {
  file : 'a file;
  name : string;
  toplevel : bool;  (** at structure level, possibly inside [struct] *)
  vb : Parsetree.value_binding;
  params : string list;  (** syntactic parameters; ["_"] for non-variables *)
  body : Parsetree.expression;  (** after peeling the [fun] chain *)
  line : int;
  anns : 'a list;  (** annotations on [line] or the line above *)
  mentions : mentions;  (** of the whole right-hand side *)
}

type 'a program = {
  files : 'a file list;  (** in scan order *)
  bindings : 'a binding list;
      (** every variable-pattern [let] at any depth, per file in
          document order *)
  by_name : (string, 'a file) Hashtbl.t;  (** module name -> each file, scan order *)
  libs : (string, string) Hashtbl.t;  (** dune library module name -> dir *)
}

val load : tool:string -> rules:string list -> 'a grammar -> string list -> 'a program
(** Walk the roots ([.ml] files, dot-entries skipped, sorted), read,
    parse and scan each file once.  A syntax error or a malformed
    annotation exits 2 with a diagnostic naming the file. *)

val anns_at : 'a file -> int -> 'a list
(** Annotations on [line], then on the line above. *)

val resolve : 'a program -> 'a file -> string list -> 'a file option
(** The scanned module a module path written in [file] names: a
    sibling in the same directory, else the module named by a
    library-qualified path or a [module X = ...] alias, else the only
    scanned module with that name.  [None] when unscanned or
    ambiguous. *)

(** {1 Syntax helpers} *)

val mentions : Parsetree.expression -> mentions
val peel : Parsetree.expression -> Parsetree.expression
(** Strip type constraints, coercions and local opens. *)

val peel_fun : Parsetree.expression -> string list * Parsetree.expression
(** Parameters and body of a syntactic function (["_"] for
    non-variable parameters). *)

val qualifier : Longident.t -> string option
(** Module component directly qualifying a name: [A.B.f] -> [Some "B"]. *)

val path_name : Parsetree.expression -> string
(** Last name on an access path: [s.mutex] -> ["mutex"]; ["?"] otherwise. *)

val pattern_vars : Parsetree.pattern -> string list

(** {1 Fixpoint} *)

val fixpoint : 'a list -> ('a -> bool) -> unit
(** Apply [step] to every element, pass after pass, until a whole pass
    returns [false] for all of them ([step x] reports a change). *)
