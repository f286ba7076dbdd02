(** Hash table keyed by [int]: sequence numbers, process ids and endpoint
    ids hash to themselves, so a lookup skips the polymorphic hash and
    compare. Bucket order differs from a polymorphic [Hashtbl]'s, so a
    table whose iteration order reaches any output keeps its old type. *)

include Hashtbl.S with type key = int
