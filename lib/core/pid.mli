(** Process identifiers.

    V uses a flat global naming space: a pid is unique across the whole
    local network.  Following the paper (Section 3.1), the high-order
    16 bits are a logical host identifier and the low-order 16 bits a
    locally unique identifier.  The explicit host field makes the
    process-locality test — the primary dispatch between the local kernel
    path and the network IPC path — a mask and compare. *)

type t = private int

val nil : t
(** The invalid pid (0); returned by failed lookups, never allocated. *)

val make : host:int -> local:int -> t
(** Both fields must fit in 16 bits; [local] must be nonzero (so [nil]
    can never be forged). *)

val host : t -> int
val local : t -> int
val is_nil : t -> bool

val of_int : int -> t
(** Decode a pid from its 32-bit wire representation. *)

val to_int : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
