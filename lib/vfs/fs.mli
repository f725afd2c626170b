(** A small block filesystem.

    The paper's file servers were VAX/UNIX machines running a kernel
    simulator and serving UNIX files; what matters to the experiments is
    that page reads and writes execute a real file-system code path with
    controllable disk behaviour.  This is a classic inode filesystem:

    - block 0: superblock;
    - a block-allocation bitmap;
    - an inode table (64-byte inodes, 12 direct + 1 indirect pointer);
    - a flat root directory (inode 0) of 32-byte entries.

    With 512-byte blocks a file holds up to 12 + 128 blocks = 71,680
    bytes — comfortably the paper's 64-kilobyte program images.

    A write-through block cache makes re-reads free, reproducing the
    "data buffered in memory" condition of Table 6-1; disable it to force
    every access to pay disk latency.

    Cached blocks are read-only: a write stores a fresh copy in the
    cache (and on the disk) in place of the old entry, and nothing ever
    changes an entry in place.  So reads, directory scans and {!check}
    look at cached blocks without copying them, and {!clone}s share
    entries.  Every read still hands its caller bytes of its own.

    All calls block the calling fiber for the disk time they incur. *)

type t

type error =
  | No_space
  | No_inodes
  | Not_found
  | Already_exists
  | Name_too_long
  | Too_big
  | Bad_argument
  | Not_formatted

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val block_size : int
(** 512, the paper's page size. *)

val max_file_size : int

val format : Disk.t -> ?journal_blocks:int -> ninodes:int -> unit -> unit
(** Initialize an empty filesystem on the disk.  [journal_blocks > 0]
    reserves that many blocks at the tail of the disk for a write-ahead
    journal: every mutating operation then becomes an atomic, serialized
    transaction (see {!recover}).  Default [0]: no journal, identical
    on-disk layout and behaviour to earlier versions. *)

val mount : Disk.t -> (t, error) result
(** Mount, replaying any committed journal transaction first. *)

val disk : t -> Disk.t

val clone : t -> Disk.t -> t
(** [clone t disk] is [t] on [disk]: the same geometry, block cache
    (a new table sharing [t]'s read-only entries), cache counters,
    journal sequence and epoch, with no transaction open and the lock
    free.  [disk] must hold the same media as [t]'s disk (e.g. seeded
    from its {!Disk.snapshot}) and have its geometry.  Raises
    [Invalid_argument] while [t] is in the middle of an operation. *)

val journaled : t -> bool

val epoch : t -> int
(** The file system's epoch: 0 after {!format}, and one more than the
    disk's after each {!recover}.  It lives in the journal's head block,
    which every commit and replay rewrites anyway, so it survives
    {!mount} and {!clone} at no extra disk write; two recoveries with no
    commit between them read the same value.  A server makes its file
    versions (epoch, counter) pairs with it, so a version handed out
    after a recovery exceeds every version acknowledged before.  Always
    0 without a journal. *)

val recover : t -> unit
(** Crash recovery on a filesystem handle whose host just restarted:
    drops all volatile state (block cache, open transaction, lock),
    replays the journal — a committed-but-not-checkpointed transaction
    is applied (idempotently), an uncommitted one is discarded — and
    sets the {!epoch} to one more than the journal head's.  Must be
    called from a fiber; blocks for the disk I/O it incurs. *)

val check : t -> string list
(** Offline-style consistency check ("fsck"): bitmap vs reachable
    blocks, double claims, reserved-region integrity, directory entries
    vs inode table.  Returns human-readable problems, inodes first (in
    inode order), then the bitmap (in block order), then directory
    entries (in slot order); [[]] means consistent. *)

(** {1 Files} *)

val create : t -> string -> (int, error) result
(** Create an empty file; returns its inode number. *)

val lookup : t -> string -> int option
val unlink : t -> string -> (unit, error) result
val size : t -> inum:int -> (int, error) result

val read : t -> inum:int -> pos:int -> len:int -> (Bytes.t, error) result
(** Short reads at end of file return fewer bytes; reads past the end
    return empty. *)

val read_into :
  t -> inum:int -> pos:int -> len:int -> Vkernel.Mem.t -> at:int ->
  (int, error) result
(** {!read} straight into an address space at offset [at], without
    building the bytes in between; returns the number of bytes read.
    Raises [Invalid_argument] if they do not fit in the space. *)

val write : t -> inum:int -> pos:int -> Bytes.t -> (unit, error) result
(** Extends the file as needed (holes read back as zeros). *)

val list : t -> (string * int) list

(** {1 Cache control} *)

val set_cache_enabled : t -> bool -> unit
val evict_cache : t -> unit
val cache_hits : t -> int
val cache_misses : t -> int
