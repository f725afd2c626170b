(** Process identifiers.

    V uses a flat global naming space: a pid is unique across the whole
    local network.  Following the paper (Section 3.1), the high-order
    16 bits are a logical host identifier and the low-order 16 bits a
    locally unique identifier.  The explicit host field makes the
    process-locality test — the primary dispatch between the local kernel
    path and the network IPC path — a mask and compare.

    A kernel splits the local id in two: its low 8 bits name
    the slot of the process's descriptor, its high 8 bits the slot's
    generation, so a kernel finds a local process by indexing, and a pid
    whose slot has since been handed out again names a later generation
    and misses.  Slot 0 is never used, so no pid of slot and generation
    0 is ever made, and a slot's first pid has generation 0: its local
    id is the slot number. *)

type t = private int

val nil : t
(** The invalid pid (0); returned by failed lookups, never allocated. *)

val make : host:int -> local:int -> t
(** Both fields must fit in 16 bits; [local] must be nonzero (so [nil]
    can never be forged). *)

val host : t -> int
val local : t -> int
val is_nil : t -> bool

val slots : int
(** 256, slot 0 included: a kernel holds at most 255 processes at once. *)

val slot : t -> int

val next_generation : t -> t
(** The same host and slot, one generation on: generation 255 wraps to
    0, so a pid names the same slot's process again once the slot has
    been handed out 256 more times. *)

val of_int : int -> t
(** Decode a pid from its 32-bit wire representation. *)

val to_int : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
