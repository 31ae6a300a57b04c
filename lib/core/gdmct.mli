(** Grouped minimum-connecting-tree results (after Hristidis, Koudas,
    Papakonstantinou & Srivastava, TKDE 2006 — the paper's related work
    [8]).

    An alternative result semantics the paper positions RTFs against:
    instead of all keyword nodes of a partition, a result is the
    {e minimum connecting tree} of one witness per keyword, grouped by
    its root, and results whose tree exceeds a size threshold are
    dropped.

    This implementation makes the standard simplification of picking,
    per keyword, the witness {e closest to the root} (path interactions
    between witnesses are ignored, so the tree is minimal per keyword
    rather than globally — the grouped variant of the original paper
    does the same).  Witnesses are drawn from the root's own RTF when it
    can: if every keyword has a witness outside all full containers
    below the root (the root is then an ELCA), the closest is chosen
    among those, so the tree never exceeds the raw RTF at that root;
    any other root takes the closest witness anywhere in its subtree.
    A root qualifies when it is exactly the LCA of its chosen witnesses
    ("tightest", so each group is reported once).

    The A5 ablation compares fragment sizes of MCTs against meaningful
    RTFs on the same queries. *)

type result = {
  root : int;  (** the MCT root (LCA of the chosen witnesses) *)
  fragment : Fragment.t;  (** the connecting tree *)
  edges : int;  (** its size in edges *)
}

val search : ?max_edges:int -> Query.t -> result list
(** All qualifying connecting trees, document order of the root.
    [max_edges] (default 10, the threshold the GDMCT paper also uses as
    its running example) drops oversized trees. *)
