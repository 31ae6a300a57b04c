(** Relational shredding of XML documents.

    The paper's experimental platform stores shredded XML in PostgreSQL as
    three tables:

    - [label (label, id)] — distinct element names and their ids;
    - [element (label, dewey, level, label-number-sequence,
      content-feature)] — one row per node, where the label number
      sequence lists the label ids on the root-to-node path and the
      content feature is the node's cID;
    - [value (label, dewey, attribute, keyword)] — one row per
      (node, keyword) pair, with the attribute name when the keyword comes
      from an attribute value ([""] for label/text words).

    We reproduce the same tables in memory; {!Inverted} is the index that
    answers the keyword lookups the paper issues over the [value] table,
    and [xks sql] answers the same lookup from the value rows alone
    ({!values}, {!find_values}). *)

type label_row = { label_name : string; label_id : int }

type element_row = {
  e_label : string;
  e_dewey : Xks_xml.Dewey.t;
  e_level : int;  (** depth; the root is level 0 *)
  e_label_path : int list;
      (** label ids on the path from the root down to this node,
          root first — the paper's "label number sequence" *)
  e_content_feature : Cid.t;  (** cID of the node's own content *)
}

type value_row = {
  v_label : string;
  v_dewey : Xks_xml.Dewey.t;
  v_id : int;  (** the node's preorder id, as in {!Inverted} postings *)
  v_attribute : string;  (** attribute name, [""] for label/text words *)
  v_keyword : string;
}

type tables = {
  labels : label_row list;  (** in id order *)
  elements : element_row array;  (** in document order *)
  values : value_row list;  (** in document order *)
}

val shred : ?cid_mode:Cid.mode -> Xks_xml.Tree.t -> tables

val values : Xks_xml.Tree.t -> value_row list
(** The [value] table alone ([(shred doc).values]), without the label
    paths and content features of the [element] rows — all that a
    keyword lookup reads. *)

val find_values : value_row list -> string -> value_row list
(** All [value] rows whose keyword equals the given word (normalised
    here), in document order — the SQL lookup of the paper's Section
    5.2.  Rows are distinct and their [v_id]s ascending. *)

val row_count : tables -> int * int * int
(** [(labels, elements, values)] cardinalities. *)
