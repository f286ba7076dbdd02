(** The request queue of a batching window: FIFO, deduplicated by
    (rid, j).

    A leaseholder's [pending] and [limbo] queues. Every client
    retransmission of a queued try arrives here, so membership is a hash
    lookup instead of a list scan, and append, [take] and [length] are
    O(1) per item. The queue holds each (rid, j) at most once, on every
    path. *)

type 'r t
(** A queue of ['r * int] items, a request and its try counter [j]. *)

val create : rid:('r -> int) -> unit -> 'r t
(** [create ~rid ()] is an empty queue; [rid r] is the request id of
    [r]. *)

val add : 'r t -> 'r * int -> unit
(** [add q (r, j)] appends the item unless (rid r, j) is already queued. *)

val take : 'r t -> int -> ('r * int) list
(** [take q n] removes and returns the first [min n (length q)] items,
    oldest first. A taken (rid, j) can be added again. *)

val requeue : 'r t -> ('r * int) list -> unit
(** [requeue q items] puts [items] back in front of [q], in order. An item
    whose (rid, j) is already queued keeps its place and is not added a
    second time. *)

val transfer : 'r t -> 'r t -> unit
(** [transfer src dst] appends the items of [src] to [dst], skipping any
    already queued there, and empties [src]. *)

val clear : 'r t -> unit
val length : 'r t -> int
val is_empty : 'r t -> bool
