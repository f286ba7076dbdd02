(** Binary min-heap keyed by a float time, FIFO among equal times.

    The event queue of the simulation engine and the timer queues of the
    reliable channel and the live backend. Elements pop in (key, push
    order): among equal keys the one pushed first pops first. The order is
    total, so the pop sequence is fixed by the pushes alone, which is what
    makes a simulation run reproducible.

    Keys are stored unboxed, the tie-break counter is owned by the heap, and
    [create] allocates no array: the first [push] allocates room for 16
    elements, and capacity doubles when full. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h at v] adds [v] with key [at], after every element of key [at]
    already in [h]. O(log n). *)

val min_key : 'a t -> float
(** [min_key h] is the smallest key in [h].
    @raise Invalid_argument if [h] is empty. *)

val top : 'a t -> 'a
(** [top h] is the value that {!pop} would return, left in place.
    @raise Invalid_argument if [h] is empty. *)

val pop : 'a t -> 'a
(** [pop h] removes and returns the value of smallest (key, push order).
    O(log n).
    @raise Invalid_argument if [h] is empty. *)

val clear : 'a t -> unit
(** [clear h] empties [h] and releases its arrays. *)
