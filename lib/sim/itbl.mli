(** Hash tables keyed by [int], for the per-event path.

    A polymorphic [(int, _) Hashtbl.t] makes two C calls per probe:
    [caml_hash] for the bucket and [caml_compare] for each key it meets.
    An [Itbl.t] hashes and compares in OCaml.  Its {!hash} equals
    [Hashtbl.hash] on every int, and the functor shares the polymorphic
    table's insertion, resizing and traversal code, so [iter], [fold] and
    [filter_map_inplace] visit the bindings of an [Itbl.t] in exactly the
    order they would visit a [Hashtbl.t] given the same operations.
    Switching a table to [Itbl] therefore changes no walk order. *)

include Hashtbl.S with type key = int

val hash : int -> int
(** [hash i = Hashtbl.hash i] for every [i]. *)
