(** Per-process address spaces.

    Each V process owns a flat byte-addressable space.  Segments named in
    messages, MoveTo/MoveFrom transfers and file buffers all refer to
    offsets in these spaces, and the kernel genuinely moves the bytes — so
    data-integrity properties (e.g. a page read returns exactly what was
    written, even under packet loss) are testable end to end.

    A space is stored as 4 KB pages that all start as one shared,
    all-zero page; a page gets its own buffer the first time a write,
    blit, fill or transfer stores into it (zeros filled or transferred
    onto a page that is still shared store nothing).  So a space costs
    O(touched pages), not O(size): creating one is a pointer array, and
    untouched pages read as zeros.  The shared zero page is never
    written.  It is immutable, so spaces built on different
    {!Vsim.Pool} domains may share it. *)

type t

val create : size:int -> t
val size : t -> int

val valid : t -> pos:int -> len:int -> bool
(** The range lies within the space ([len >= 0]). *)

val read : t -> pos:int -> len:int -> Bytes.t
(** Copy bytes out. Raises [Invalid_argument] on a bad range — kernel code
    must check {!valid} first and fail with a proper status. *)

val write : t -> pos:int -> Bytes.t -> unit
(** Copy bytes in. Raises [Invalid_argument] on a bad range. *)

val blit_out : t -> pos:int -> Bytes.t -> dst_off:int -> len:int -> unit
val blit_in : t -> pos:int -> Bytes.t -> src_off:int -> len:int -> unit

val fill : t -> pos:int -> len:int -> char -> unit

val transfer :
  src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Cross-space copy (the local MoveTo/MoveFrom data path). *)
