(** Client stubs for the V file server.

    "Applications commonly access system services through stub routines
    that provide a procedural interface to the message primitives" — these
    are those stubs.

    Two layers:

    - The {!Io} module is the file-access API proper: byte-granular
      [read]/[write] over an open-file record, an optional
      workstation-side block cache ({!Cache}) with version-based
      consistency, and automatic choice between per-page and streamed
      transfer strategies.  New code should use it.
    - The per-protocol stubs below ({!read_page}, {!write_page},
      {!read_page_basic}, ...) map one-to-one onto wire requests with no
      caching or strategy choice.  They remain the measurement baseline
      — the rigs that reproduce the paper's per-operation tables call
      them directly.

    Both layers make every request the same way: build the 32-byte
    request, stamp it with a lease-callback pid (nil from the stubs,
    which writes the zeros a fresh message holds), grant the right
    segment of the calling process's address space, Send, and decode
    the extended reply.  A stub and the matching {!Io} request put the
    same bytes on the wire apart from that pid.

    Buffer arguments ([buf]) are byte offsets in the calling process's
    address space.  The stub library reserves the top 256 bytes of the
    space as a scratch area for file names (and {!Io} one block below
    that for staging). *)

type conn

type error =
  | Server of Protocol.rstatus  (** the server refused the request *)
  | Ipc of Vkernel.Kernel.status  (** the message exchange itself failed *)
  | No_server  (** GetPid could not locate a file server *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val connect :
  Vkernel.Kernel.t -> ?logical_id:int -> unit -> (conn, error) result
(** Locate a file server via GetPid (broadcast if unknown locally). *)

val connect_to :
  Vkernel.Kernel.t -> Vkernel.Pid.t -> (conn, error) result
(** Use a known server pid.  [Error No_server] if the pid is nil, or is
    local and demonstrably dead; remote pids are accepted on faith
    (their liveness only shows up as a timeout on the first request). *)

val server_pid : conn -> Vkernel.Pid.t

type handle = int

(** {1 Name operations} *)

val open_file : conn -> string -> (handle, error) result
val create_file : conn -> string -> (handle, error) result
val delete_file : conn -> string -> (unit, error) result
val close_file : conn -> handle -> (unit, error) result
val file_size : conn -> handle -> (int, error) result

(** {1 Page-level access (two packets per page)} *)

val read_page :
  conn -> handle -> block:int -> buf:int -> ?count:int -> unit ->
  (int, error) result
(** Read up to one block into the caller's space at [buf]; returns the
    byte count. Uses Send + ReplyWithSegment. *)

val write_page :
  conn -> handle -> block:int -> buf:int -> count:int -> (int, error) result
(** Write [count] bytes from [buf]; the data rides the request packet via
    the piggybacked segment. *)

(** {1 Thoth-style access (four packets per page; Section 6.1 baseline)} *)

val read_page_basic :
  conn -> handle -> block:int -> buf:int -> ?count:int -> unit ->
  (int, error) result

val write_page_basic :
  conn -> handle -> block:int -> buf:int -> count:int -> (int, error) result

(** {1 Bulk} *)

val load_program :
  conn -> handle -> buf:int -> max:int -> (int, error) result
(** Load the whole file into the caller's space at [buf] (program
    loading); the server streams it with MoveTo. Returns the byte count. *)

val exec_scan :
  conn -> handle -> block:int -> count:int -> (int, error) result
(** Run the server's program-execution facility over [count] pages
    starting at [block]: the scan (and its page traffic) happens entirely
    on the file server; the returned value is the byte checksum.  This is
    the Section 7 extension — compare with fetching the pages and
    scanning locally. *)

val read_sequential :
  conn -> handle -> buf:int -> on_page:(int -> int -> unit) ->
  (int, error) result
(** Read the file block by block into [buf] (each page overwrites it);
    [on_page block count] is called per page. Returns total bytes. *)

(** {1 The file-access API}

    Byte-granular file I/O with an optional workstation-side block
    cache.  An {!Io.t} bundles a connection with at most one cache; each
    {!Io.open_file} returns an open-file record carrying the server
    handle plus the file's last-observed version number, which the
    server piggybacks on extended replies and the cache uses to detect
    staleness (see {!Cache}).

    [read]/[write] take byte offsets and lengths — no block numbers, no
    address-space buffer management — and internally pick a strategy:
    cached per-block access when a cache is present, plain per-page
    requests otherwise, or the streamed MoveTo bulk path for large
    uncached from-zero reads.  All operations return [(_, error) result]
    and never raise. *)

module Io : sig
  type t
  (** A connection plus (optionally) a block cache and the table of open
      files the cache writes back through. *)

  type file
  (** An open file: server handle, inode number, last-observed version. *)

  val make :
    ?cache:Cache.t ->
    ?recover:bool ->
    ?lease:bool ->
    ?logical_id:int ->
    conn ->
    t
  (** No [cache] means every operation goes to the server.

      With [recover] (default false) the client survives a server-host
      crash + restart: when an operation fails with a session-level
      error — the failure detector declared the server dead, a
      restarted host NACKed our stale pid, retransmissions ran dry, or
      the server rejected our handle (a fresh server, or a deletion of
      the file) — it re-resolves the server by [logical_id] (default
      the well-known file-server id), re-opens the file by name (which
      follows the name to a recreated file), re-pushes any
      unacknowledged dirty cached blocks, and retries the operation.
      Only idempotent operations (page reads, whole-block-image writes,
      the Stat of a lease renewal) flow through the retry, so replaying
      one that may or may not have executed before the crash is safe.

      With [lease] (default false) the client takes part in the lease
      protocol of doc/LEASES.md: a callback fiber is spawned and its pid
      stamped on every open, read, write and stat request (a close or a
      streamed read goes out unstamped, as the stubs' requests do);
      open, read and stat replies carrying a grant make cached blocks
      and the observed version authoritative until the term expires or
      the server breaks the lease, and {!close} under a live lease parks
      the server handle so the matching {!open_file} costs {e zero}
      RPCs.  When the lease is broken (a conflicting write was
      acknowledged) the client drops the file's clean blocks and demotes
      itself to the plain open-close revalidation above.  When it
      expires, the file's next use (a reopen of the parked handle or a
      read) sends one Stat, keeps the cached blocks the reply's version
      vouches for and takes the new lease it grants.  Lease clients that
      can face a server restart should also pass [~recover:true]:
      session recovery voids every lease and parked handle, which is
      what keeps a post-failover cache honest. *)

  val conn : t -> conn

  val callback_pid : t -> Vkernel.Pid.t
  (** The lease-callback fiber's pid ([Pid.nil] unless [~lease:true]). *)

  val breaks_received : t -> int
  (** Break_lease callbacks this client has acknowledged. *)

  val open_file : t -> string -> (file, error) result
  (** Open by name.  The open reply's version is checked against the
      cache ({!Cache.revalidate}), so blocks another client overwrote
      since our last use are dropped here — the open-close consistency
      point. *)

  val file_handle : file -> handle

  val file_version : file -> int
  (** The file version this client most recently observed.  Shared by
      every handle open on the same inode: a write acknowledged through
      one handle advances the version its siblings see. *)

  val file_lease_valid : file -> bool
  (** Whether this client currently holds an unexpired, unbroken lease
      on the file's inode (always [false] without [~lease:true]). *)

  val read : file -> off:int -> len:int -> (Bytes.t, error) result
  (** Read up to [len] bytes at byte offset [off]; the result is shorter
      exactly when EOF intervenes.  Cache hits cost local trap-plus-copy
      time only; misses fetch whole blocks (which then populate the
      cache). *)

  val write : file -> off:int -> Bytes.t -> (int, error) result
  (** Write the bytes at byte offset [off] (read-merge-write for partial
      blocks).  Under {!Cache.Write_through} the server is updated
      immediately; under {!Cache.Write_back} blocks are dirtied in cache
      and reach the server on eviction, {!flush} or {!close}.  Returns
      the byte count written. *)

  val flush : file -> (unit, error) result
  (** Push this file's dirty cached blocks to the server (no-op without
      a cache or under write-through). *)

  val close : file -> (unit, error) result
  (** {!flush}, then release the server handle.  Idempotent. *)
end

(** {1 Sharded access}

    A thin router over several {!Io} sessions: file names resolve to a
    shard logical id through a {!Names} map, and each shard gets its own
    lazily-created connection (and cache — inode numbers are per-shard).
    With [~recover:true] every shard session also survives crashes and
    failovers, exactly as a single {!Io} session does; combined with a
    {!Replica} standby this is the name-based failover path.  See
    doc/INTERNETWORK.md. *)

module Sharded : sig
  type t

  val make :
    ?mk_cache:(unit -> Cache.t option) ->
    ?recover:bool ->
    ?lease:bool ->
    Vkernel.Kernel.t ->
    Names.t ->
    t
  (** [mk_cache] is invoked once per shard the client actually touches
      (default: no cache). *)

  val open_file : t -> string -> (Io.file, error) result
  (** Route by shard map, connect if this shard is new, then
      {!Io.open_file}.  The returned file is used with the plain {!Io}
      operations ([Io.read], [Io.write], [Io.close], ...). *)
end
