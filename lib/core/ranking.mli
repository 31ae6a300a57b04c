(** Ranking of meaningful RTFs (the paper's stated future work).

    A simple, deterministic scorer so applications can order the returned
    fragments.  The score of a fragment combines:
    - {b depth}: deeper (more specific) LCA roots score higher, following
      the SLCA intuition that tighter fragments are more relevant;
    - {b keyword density}: keyword nodes per fragment node — fragments
      padded with structural nodes rank below compact ones;
    - {b coverage}: fragments whose root gathers many distinct keyword
      occurrences rank above minimal witnesses. *)

type scored = { fragment : Fragment.t; rtf : Rtf.t; score : float }

val score : Query.t -> Rtf.t -> Fragment.t -> float
(** Deterministic score in [(0, +inf)]; higher is better. *)

val rank_by :
  (Query.t -> Rtf.t -> Fragment.t -> float) -> Pipeline.result -> scored list
(** Fragments of a result scored by the given function, sorted by
    decreasing score; ties broken by document order of the fragment
    root. *)

val rank : Pipeline.result -> scored list
(** {!rank_by} under {!score}. *)
