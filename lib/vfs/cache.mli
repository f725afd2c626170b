(** Workstation-side block cache.

    The paper's diskless workstations fetch every page over the network
    (Section 6); this cache sits between the {!Client.Io} file API and
    the wire protocol so that re-reads of a warm working set cost only
    local kernel + copy time instead of a remote page read.

    Blocks are kept in one table per inode, keyed by block number, and
    tagged with the file version the server piggybacked on the reply
    that produced them ({!Protocol.encode_reply_ext}), so the per-file
    calls ({!revalidate}, {!dirty_blocks}, {!retag_file}, {!drop_file})
    touch only that file's blocks.  Consistency is the open-close model
    of early distributed file systems: a client detects remote writes
    when it reopens a file (the open reply carries the current version;
    {!revalidate} drops stale clean blocks) or when any extended reply
    reveals a newer version ({!find} treats a clean block with an old
    tag as a miss and invalidates it).

    Two write policies:
    - {!Write_through} — every write goes to the server immediately;
      cached copies are always clean.
    - {!Write_back} — writes dirty the cached block; dirty blocks reach
      the server on eviction, {!Client.Io.flush} or close.

    Eviction is LRU, implemented with a monotonic touch tick so that
    victim choice is deterministic (no hash-order dependence).  All
    cache activity is reported as {!Vsim.Event.Cache_op} trace events
    when tracing is enabled, feeding the [cache_*] counters of
    [Vobs.Metrics]. *)

type policy = Write_through | Write_back

type config = { capacity_blocks : int; policy : policy }

val policy_to_string : policy -> string

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;  (** dirty blocks pushed to the server *)
  invalidations : int;  (** clean blocks dropped as stale *)
}

type t

val create : Vsim.Engine.t -> host:int -> config -> t
(** [host] attributes the {!Vsim.Event.Cache_op} events this cache
    emits on [eng]. *)

val config : t -> config
val stats : t -> stats

val find : t -> inum:int -> block:int -> version:int -> Bytes.t option
(** Look up a block, counting a hit or miss.  [version] is the caller's
    latest knowledge of the file's version: a {e clean} cached block
    tagged with an older version is invalidated and reported as a miss;
    a {e dirty} block is returned regardless (local modifications win
    until flushed).  The returned bytes are the cache's own copy — do
    not mutate. *)

val insert :
  t ->
  inum:int ->
  block:int ->
  version:int ->
  dirty:bool ->
  Bytes.t ->
  (int * int * Bytes.t) list
(** Insert (or replace) a block, taking ownership of the bytes.  Returns
    the dirty blocks [(inum, block, data)] evicted to make room, oldest
    first — the caller must write them to the server (clean victims are
    dropped silently).  With [capacity_blocks = 0] every insert is a
    no-op returning [[]]. *)

val retag_file : t -> inum:int -> version:int -> unit
(** Raise to [version] the tag of every cached block of [inum] whose
    tag is exactly [version - 1] — the version the caller observed just
    before its own write produced [version], so no other writer can
    have touched those blocks.  Blocks with older tags have unknown
    validity (they may predate a remote write) and keep their tags, to
    be dropped by {!find}'s lazy check or {!revalidate} on reopen. *)

val retag_block : t -> inum:int -> block:int -> version:int -> unit
(** Raise one block's tag to [version] (never lowers; no-op if absent).
    Used after a write is acknowledged: whatever concurrent writers did
    to the rest of the file, the block just written holds exactly the
    content the server acknowledged at [version], so it is current by
    definition even when the reply reveals a version gap. *)

val dirty_blocks : t -> inum:int -> (int * Bytes.t) list
(** All dirty blocks of a file as [(block, data)], sorted by block
    number.  The dirty bits are {e not} cleared: the caller pushes each
    block to the server and calls {!mark_clean} (plus {!note_writeback})
    only on success, so a failed flush leaves the unpushed blocks dirty
    and retryable instead of silently losing them. *)

val mark_clean : t -> inum:int -> block:int -> unit
(** Clear a block's dirty bit after its write-back reached the server
    (no-op if the block is not resident). *)

val note_writeback : t -> inum:int -> block:int -> unit
(** Count (and trace) one dirty block pushed to the server. *)

val revalidate : t -> inum:int -> version:int -> unit
(** Open-time (or lapsed-lease) consistency check: drop (invalidate), in
    block order, all {e clean} blocks of [inum] whose tag is older than
    [version].  Dirty blocks survive — they hold local modifications
    that still need flushing. *)

val drop_file : t -> inum:int -> unit
(** Forget every block of a file, dirty or not, without counting
    invalidations (used when a file is deleted). *)
