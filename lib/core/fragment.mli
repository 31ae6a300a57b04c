(** Result fragments.

    A fragment is a connected piece of the document: an LCA root plus a
    subset of its descendants (every member's parent is a member, except
    the root's).  Both raw RTFs and pruned (meaningful) RTFs are values of
    this type; representing a fragment as a sorted id set makes the
    CFR/APR comparisons of Section 5 and golden tests straightforward. *)

type t = private {
  root : int;  (** id of the fragment root (an LCA node) *)
  members : int array;  (** sorted ids of all fragment nodes, [root] included *)
}

val make : root:int -> members:int list -> t
(** Sorts and deduplicates [members]; adds [root] if missing. *)

val of_ids : root:int -> Xks_util.Int_vec.t -> t
(** [of_ids ~root ids] is the fragment whose members are the ids in
    [ids], which must include [root].  Sorts and deduplicates [ids] in
    place, in one pass when they are already ascending (as a walk that
    visits the members in document order leaves them), and copies them
    out: [ids] can be a {!Xks_util.Scratch} buffer.  {!make} is this
    over a scratch buffer holding [root] and [members].
    @raise Invalid_argument when [root] is not among [ids]. *)

val size : t -> int
val mem : t -> int -> bool
val equal : t -> t -> bool
(** Same root and same member set. *)

val members_list : t -> int list

val diff_count : t -> t -> int
(** [diff_count a b] is the number of members of [a] not in [b]. *)

val render : Xks_xml.Tree.t -> t -> string
(** Indented textual tree view, one ["dewey (label) 'text'"] line per
    member, mirroring the paper's figures. *)

val to_xml : Xks_xml.Tree.t -> t -> string
(** Serialize the fragment as an XML snippet (members only, original
    attributes and text preserved). *)

val pp : Xks_xml.Tree.t -> Format.formatter -> t -> unit
