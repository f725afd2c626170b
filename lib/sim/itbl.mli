(** Hash tables keyed by [int], for the per-event path.

    A polymorphic [(int, _) Hashtbl.t] makes two C calls per probe:
    [caml_hash] for the bucket and [caml_compare] for each key it meets,
    and a [Hashtbl.Make] table calls its hash and equality through the
    functor's closures.  An [Itbl.t] is the Stdlib's table written out
    for int keys, so a probe inlines the hash and compares keys as ints.
    Its {!hash} equals [Hashtbl.hash] on every int, and it keeps the
    Stdlib's bucket array, head insertion, resize threshold,
    order-preserving resize and traversal rule (a table resized from
    inside a traversal copies its cells rather than relinking them), so
    [iter], [fold] and [filter_map_inplace] visit the bindings of an
    [Itbl.t] in exactly the order they would visit a [Hashtbl.t] given
    the same operations.  Switching a table to [Itbl] therefore changes
    no walk order.  Each function behaves as its [Hashtbl] namesake. *)

type 'a t

val create : int -> 'a t
val reset : 'a t -> unit
val copy : 'a t -> 'a t
val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit

val find : 'a t -> int -> 'a
(** @raise Not_found when the key has no binding. *)

val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool
val length : 'a t -> int
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val filter_map_inplace : (int -> 'a -> 'a option) -> 'a t -> unit

val hash : int -> int
(** [hash i = Hashtbl.hash i] for every [i]. *)
