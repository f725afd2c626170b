(** A block device with a latency model.

    The paper treats disk latency as a parameter (10/15/20 ms in
    Table 6-2, ~20 ms in its Section 6.1 estimates) and even simulates the
    disk by interposing a delay in the server.  We provide both a fixed
    latency — for exact reproduction — and a simple seek + rotation model
    for more realistic workloads.

    The device is an FCFS queued resource: one operation is in service
    at a time and arrivals while busy wait in an explicit queue, which
    is what couples many-client load to disk saturation in the
    Section 7 experiments.  Queue depth and wait time are observable
    ({!queue_depth}, {!queue_wait_ns}) and genuine contention — a
    request arriving while the device is busy with an unrelated access
    — emits a [Disk_queue] trace event. *)

type latency =
  | Fixed of Vsim.Time.t  (** every access costs exactly this *)
  | Seek of {
      base_ns : int;  (** controller + transfer overhead *)
      full_seek_ns : int;  (** end-to-end arm travel *)
      rotation_ns : int;  (** full revolution; average adds half *)
      cylinders : int;
    }

type t

val create :
  Vsim.Engine.t -> ?host:int -> ?latency:latency -> blocks:int ->
  block_size:int -> unit -> t
(** Default latency is [Fixed 20ms], the paper's rule-of-thumb disk.
    [host] attributes [Disk_io] trace events; defaults to 0. *)

val engine : t -> Vsim.Engine.t
val block_size : t -> int
val blocks : t -> int
val latency : t -> latency
val set_latency : t -> latency -> unit

(** {1 Access from a fiber}

    {!read}, {!read_shared}, {!write} and {!write_shared} block the
    calling fiber for the access, queued behind the accesses before
    it.  They follow {!Vhw.Cpu.charge}'s rule: when the fiber holds
    the tail of the event firing ({!Vsim.Engine.next_is}), the device
    is idle and the access's completion would be the next event, the
    access is booked, counted and traced as a queued one is and its
    [disk.complete] event fires in place ({!Vsim.Engine.advance}), so
    the fiber does not park.  Either way the simulated instants, the
    trace and the counters are the same. *)

val read : t -> int -> Bytes.t
(** [read t b] blocks the calling fiber for the access latency and returns
    a copy of block [b]. *)

val read_shared : t -> int -> Bytes.t
(** {!read} without the copy: the disk's block [b] itself.  Blocks are
    immutable, so a later write leaves it as it was; the caller (a
    metadata cache keeps it as its entry) must never write to it. *)

val write : t -> int -> Bytes.t -> unit
(** [write t b data] blocks for the access latency. [data] must be exactly
    one block; the disk stores a copy of it. *)

val write_shared : t -> int -> Bytes.t -> unit
(** {!write} without the copy: [data] itself becomes the block.  The
    caller may go on reading [data] (a block cache keeps it as its
    entry) but must never change it. *)

val read_k : t -> int -> (Bytes.t -> unit) -> unit
(** Callback form, e.g. for asynchronous read-ahead.  The callback forms
    always queue their completion as an event. *)

val write_k : t -> int -> Bytes.t -> (unit -> unit) -> unit

(** {1 Images}

    Blocks are immutable values: a write stores a private copy of its
    data when it completes, and reads return copies or, from
    {!read_shared}, a block no one may change.  So a snapshot
    shares the disk's blocks instead of copying them, and costs one
    pointer per 256 blocks.  A snapshot is an image that any number of
    disks, on any domain, may restore or be seeded from: each disk
    copies a shared 256-block chunk's pointers on its first write there,
    and never changes the image. *)

type snapshot

val snapshot : t -> snapshot
(** The media contents and the {!reads}/{!writes} counters — no queue or
    timing state.  Crash tests use it to save the image mid-sequence and
    wind the media back with {!restore} to replay recovery from that
    point. *)

val restore : t -> snapshot -> unit
(** Overwrite the media with a snapshot; the counters are left alone.
    Raises [Invalid_argument] unless the snapshot has this disk's block
    count and block size. *)

val seed : t -> snapshot -> unit
(** {!restore}, and set {!reads}/{!writes} to the snapshot's counts: a
    fresh disk seeded from an image reads as the image's disk did when
    the snapshot was taken.  Same geometry check as {!restore}. *)

val peek : t -> int -> Bytes.t
(** A copy of block [b] as it is now, outside simulated time: no
    latency, no counters, no trace event. *)

val reads : t -> int
val writes : t -> int
val busy_ns : t -> int
(** Total time the device spent servicing requests. *)

val queue_depth : t -> int
(** Requests currently waiting for service (excludes the one in
    service). *)

val max_queue_depth : t -> int
(** High-water mark of {!queue_depth} among requests that actually had
    to wait. *)

val queue_waits : t -> int
(** Number of requests that arrived while the device was busy and spent
    nonzero time queued. *)

val queue_wait_ns : t -> int
(** Total time requests spent waiting in the queue before service. *)
