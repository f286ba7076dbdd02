(** Latency-component accounting for the paper's Figure 8.

    An application server wraps each protocol stage in {!span}; the harness
    marks transaction boundaries with {!tick}; {!row} then reports the mean
    per-transaction time spent in each category, and [other] is whatever part
    of the client-visible total no category accounts for (dominated by
    client–server communication, as in the paper). *)

type t

val create : unit -> t

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t category f] runs [f], charging its elapsed virtual time to
    [category]. Must run inside a fiber. Nesting is allowed but the caller
    is responsible for categories not double-counting. *)

val span_opt : t option -> string -> (unit -> 'a) -> 'a
(** {!span} when accounting is on; [None] just runs [f]. *)

val add : t -> string -> float -> unit
(** Directly charge [category]. *)

val tick : t -> unit
(** Mark the completion of one transaction. *)

val transactions : t -> int

val row : t -> string -> float
(** Mean per-transaction time of a category (0 if never charged). *)

val categories : t -> string list
(** Categories charged so far, sorted. *)

val other : t -> total:float -> float
(** [other t ~total] is the unaccounted share of the mean client-visible
    total. *)

val reset : t -> unit
