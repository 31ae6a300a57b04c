(** Binary searches over sorted [int array]s.

    Posting lists are arrays of node ids sorted ascending (node ids are
    preorder ranks, so ascending id order is document order).  The LCA
    algorithms probe them by index: [upper_bound] at a node gives both
    of its neighbouring occurrences at once. *)

val lower_bound : int array -> int -> int
(** [lower_bound a x] is the smallest index [i] with [a.(i) >= x], or
    [Array.length a] when every element is smaller. *)

val upper_bound : int array -> int -> int
(** [upper_bound a x] is the smallest index [i] with [a.(i) > x], or
    [Array.length a] when every element is [<= x]. *)

val upper_bound_back : int array -> hi:int -> int -> int
(** [upper_bound_back a ~hi x] is [min hi (upper_bound a x)] for
    [0 <= hi <= Array.length a]: the smallest index [i <= hi] such that
    every element of [a.(i) .. a.(hi - 1)] is greater than [x].  It
    gallops down from [hi] and bisects the last stride, so it makes
    O(log (hi - i)) probes: a cursor moved backwards along a sorted array
    pays for the entries it skips, and never more than a binary search.
    @raise Invalid_argument if [hi] is out of range. *)

val upper_bound_from : int array -> lo:int -> int -> int
(** [upper_bound_from a ~lo x] is [upper_bound a x] for
    [0 <= lo <= Array.length a], found from the cursor [lo]: it gallops
    forward when every element before [lo] is [<= x], and back
    ({!upper_bound_back}) otherwise.  It makes O(log d) probes, where [d]
    is the distance from [lo] to the answer, so a scan that carries [lo]
    along ascending [x] pays for the entries it passes over, and never
    more than about two binary searches.
    @raise Invalid_argument if [lo] is out of range. *)

val right_match : int array -> int -> int option
(** [right_match a x] is the smallest element [>= x], if any — the
    paper's [rm] probe. *)

val mem : int array -> int -> bool
(** Membership in a sorted array. *)
