(** Per-process address spaces.

    Each V process owns a flat byte-addressable space.  Segments named in
    messages, MoveTo/MoveFrom transfers and file buffers all refer to
    offsets in these spaces, and the kernel genuinely moves the bytes — so
    data-integrity properties (e.g. a page read returns exactly what was
    written, even under packet loss) are testable end to end.

    A space is stored as {!page_size}-byte pages that all start as one
    shared, all-zero page; a page gets its own buffer the first time a
    write, blit, fill or transfer stores into it (zeros filled or
    transferred onto a page that is still shared store nothing).  A
    space holds no page table at all until its first store, so a space
    never written costs only its size, and a written one O(touched
    pages): untouched pages read as zeros.  The shared zero page is
    never written.  It is immutable, so spaces built on different
    {!Vsim.Pool} domains may share it.

    A page is 1 KB (129 words) because that is the largest power of two
    that OCaml's minor heap takes (objects over 256 words go straight
    to the major heap), and a default 256 KB space's 256-entry table is
    still a minor block.  So the spaces a short run builds and drops,
    such as a checker schedule's, are allocated and collected in the
    minor heap, not left for the major collector. *)

type t

val page_size : int
(** Bytes per page: 1024. *)

val create : size:int -> t
val size : t -> int

val valid : t -> pos:int -> len:int -> bool
(** The range lies within the space ([len >= 0]). *)

val read : t -> pos:int -> len:int -> Bytes.t
(** Copy bytes out. Raises [Invalid_argument] on a bad range — kernel code
    must check {!valid} first and fail with a proper status. *)

val write : t -> pos:int -> Bytes.t -> unit
(** Copy bytes in. Raises [Invalid_argument] on a bad range. *)

val equal : t -> pos:int -> Bytes.t -> bool
(** [equal t ~pos b]: the space holds [b] at [pos].  Compares in place,
    page by page, so it copies no more than a page at a time.  Raises
    [Invalid_argument] on a bad range. *)

val blit_out : t -> pos:int -> Bytes.t -> dst_off:int -> len:int -> unit
val blit_in : t -> pos:int -> Bytes.t -> src_off:int -> len:int -> unit

val fill : t -> pos:int -> len:int -> char -> unit

val transfer :
  src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit
(** Cross-space copy (the local MoveTo/MoveFrom data path). *)
