(** Growable integer arrays.

    A minimal dynamic array of unboxed [int]s (OCaml 5.1 has no stdlib
    [Dynarray] yet), used to accumulate posting lists and node-id sets
    without boxing. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int
(** @raise Invalid_argument on out-of-range index. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument on out-of-range index. *)

val clear : t -> unit
(** Reset the length to 0, keeping the capacity. *)

val truncate : t -> int -> unit
(** [truncate v n] keeps the first [n] elements, keeping the capacity.
    @raise Invalid_argument unless [0 <= n <= length v]. *)

val to_array : t -> int array
(** A fresh array of the current contents. *)

val last : t -> int
(** @raise Invalid_argument when empty. *)

val pop : t -> int
(** Remove and return the last element.
    @raise Invalid_argument when empty. *)

val sort_uniq : t -> unit
(** Sort ascending and drop duplicates, in place (the length shrinks by
    the number of duplicates).  Allocation-free: heapsort over the
    backing array — meant for {!Scratch} buffers on hot query paths.
    An input already in ascending order is only deduplicated: one pass
    finds it sorted, and the heapsort is skipped. *)
