(** The distributed V kernel.

    One [Kernel.t] per workstation.  It implements the paper's primitives
    (Section 2.1) with uniform local and network semantics:

    - [send] / [receive] / [reply]: synchronous message exchanges on
      32-byte messages;
    - [receive_with_segment] / [reply_with_segment]: the page-level
      extensions that piggyback a segment on the message packet, getting
      file reads and writes down to two packets;
    - [move_to] / [move_from]: bulk data transfer between address spaces,
      streamed as maximally-sized packets with a single acknowledgement;
    - [set_pid] / [get_pid]: the logical process registry, resolved by
      network broadcast when not known locally;
    - [get_time]: the trivial kernel operation (the measurement floor).

    Remote operations are implemented directly in the kernel, not via a
    process-level network server; packets ride raw data-link frames; the
    reply message is the acknowledgement of a Send; retransmission after
    timeout [T] with duplicate filtering via alien descriptors reproduces
    Section 3.2's protocol, including reply-pending packets and negative
    acknowledgements.

    All blocking operations must be called from within a process fiber
    spawned on this kernel. *)

type t

(** Operation outcome, delivered where Thoth returned condition codes. *)
type status =
  | Ok
  | Nonexistent  (** destination process does not exist (answered by NACK) *)
  | Bad_address  (** a named range falls outside an address space *)
  | No_permission  (** segment access not granted, or not awaiting reply *)
  | Too_big  (** a reply segment exceeding one packet's capacity *)
  | Retryable
      (** all retransmissions went unanswered, but the destination host is
          not (yet) considered failed — the operation may be retried *)
  | Dead
      (** the failure detector holds the destination host suspect after
          repeated retry exhaustion; retrying is unlikely to help until
          traffic from the host proves it alive again *)

val status_to_string : status -> string
val pp_status : Format.formatter -> status -> unit

(** Visibility of a registry entry or lookup (paper, Section 3.1: needed
    to distinguish per-workstation servers from network-wide ones). *)
type scope = Local | Remote | Any

(** Retransmission-timer policy (see {!Rto.mode}).  [Fixed] uses the
    paper's constant T for every destination; [Adaptive] estimates a
    per-destination round trip and backs off exponentially. *)
type rto_mode = Rto.mode = Fixed | Adaptive

type config = {
  retransmit_timeout_ns : int;  (** the paper's T ([Fixed] mode) *)
  max_retries : int;  (** the paper's N *)
  max_aliens : int;  (** alien descriptor pool size *)
  max_packet_data : int;  (** data bytes per maximally-sized packet *)
  max_seg_append : int;
      (** how much of a read-accessible segment a Send piggybacks; "at
          least as large as a file block" *)
  rto_mode : rto_mode;
  rto_min_ns : int;  (** adaptive-timer floor *)
  rto_max_ns : int;  (** adaptive-timer (and backoff) cap *)
  rto_ns_per_byte : int;
      (** extra timeout margin per outstanding data byte: size-scales
          MoveTo/MoveFrom page-train timers *)
  suspect_threshold : int;
      (** consecutive retry exhaustions before a destination host is
          marked suspect and failures surface as [Dead] *)
  default_mem_size : int;  (** address-space size for new processes *)
  ip_header_mode : bool;
      (** ablation: layered internet headers (+20 bytes, + per-packet CPU) *)
  process_server_mode : bool;
      (** ablation: relay every packet through a process-level network
          server (extra copy + context switches each way) *)
}

val default_config : config

val create :
  Vsim.Engine.t -> cpu:Vhw.Cpu.t -> nic:Vnet.Nic.t -> host:int ->
  ?config:config -> unit -> t
(** A kernel for logical host [host].  With the default (direct) host
    addressing, [host] must equal the NIC's station address — the 3 Mb
    convention where "the top bits of the logical host identifier are the
    physical network address".  Use {!create_mapped} for the 10 Mb style
    table-driven mapping. *)

val create_mapped :
  Vsim.Engine.t -> cpu:Vhw.Cpu.t -> nic:Vnet.Nic.t -> host:int ->
  ?config:config -> unit -> t
(** Like {!create} but the logical-host-to-network-address mapping is a
    table: unknown hosts are reached by broadcast, and correspondences are
    learned from received packets (Section 3.1). *)

val engine : t -> Vsim.Engine.t
val cpu : t -> Vhw.Cpu.t
val host : t -> int
val config : t -> config

(** {1 Processes} *)

val spawn : t -> ?name:string -> ?mem_size:int -> (Pid.t -> unit) -> Pid.t
(** Create a process; its body starts as a fiber at the current instant. *)

val destroy : t -> Pid.t -> unit
(** Destroy a process: queued and blocked senders are failed with
    [Nonexistent].  Its own remote Send, MoveTo or MoveFrom is abandoned:
    no further retransmission, and the process is never resumed. *)

val memory : t -> Pid.t -> Mem.t
(** The process's address space (test and stub-library access). *)

val self_pid : t -> Pid.t
(** Pid of the calling process. Must be called from a process fiber. *)

val my_memory : t -> Mem.t
(** Address space of the calling process. *)

val alive : t -> Pid.t -> bool
val process_name : t -> Pid.t -> string option

(** {1 Host crash and restart} *)

val crash : t -> unit
(** Power loss: every process fiber is killed mid-flight, every protocol
    timer is cancelled, and all volatile kernel state (processes, aliens,
    move streams, name registry, GetPid cache, RTO estimators) vanishes.
    Nothing is transmitted — a dying host sends no NACKs.  The host stops
    hearing and sending frames until {!restart}.  Idempotent. *)

val restart : t -> unit
(** Bring a crashed host back up: the kernel starts empty (fresh pid
    incarnations, nothing registered) and each hook registered with
    {!on_restart} runs, in registration order.  No-op if not down. *)

val is_down : t -> bool

val on_restart : t -> (unit -> unit) -> unit
(** Register a hook run by {!restart}; services use this to re-spawn
    their process teams and run recovery. *)

val forget_pid : t -> logical_id:int -> unit
(** Drop a cached GetPid translation so the next {!get_pid} broadcasts
    again.  Clients call this when a server stops answering: the cached
    pid may name a dead incarnation. *)

val host_suspected : t -> host:int -> bool
(** Whether this kernel's failure detector currently suspects
    destination [host] (consecutive retry exhaustions reached the
    suspect threshold; see [suspect_threshold] in {!config}).  [false]
    for hosts the kernel has never talked to.  Read-only: servers use
    it to reclaim resources held on behalf of dead clients. *)

(** {1 IPC primitives (call from process fibers only)} *)

val send : t -> Msg.t -> Pid.t -> status
(** Blocks until the receiver replies; the reply overwrites [msg]. *)

val receive : t -> Msg.t -> Pid.t
(** Blocks until a message arrives; returns the sender. *)

val receive_with_segment : t -> Msg.t -> segptr:int -> segsize:int -> Pid.t * int
(** As [receive], but up to [segsize] bytes of a read-accessible segment
    piggybacked on the message are deposited at [segptr] in the caller's
    space; returns the sender and the byte count received. *)

val receive_specific : t -> Msg.t -> Pid.t -> status
(** Block until a message from the given process arrives (Thoth's
    ReceiveSpecific).  Returns [Nonexistent] immediately for a dead local
    pid, or if the awaited process is destroyed while we wait. *)

val reply : t -> Msg.t -> Pid.t -> status

val reply_with_segment :
  t -> Msg.t -> Pid.t -> destptr:int -> segptr:int -> segsize:int -> status
(** As [reply], and also transmit [segsize] bytes starting at [segptr] in
    the caller's space to [destptr] in the destination's space — in the
    same packet.  The destination must have granted write access. *)

val move_to : t -> dst_pid:Pid.t -> dst:int -> src:int -> count:int -> status
(** Copy [count] bytes from the caller's space to [dst_pid]'s space.
    [dst_pid] must be awaiting reply from the caller and have granted
    write access covering [dst..dst+count]. *)

val move_from : t -> src_pid:Pid.t -> dst:int -> src:int -> count:int -> status
(** Copy [count] bytes from [src_pid]'s space into the caller's space.
    [src_pid] must be awaiting reply from the caller and have granted read
    access covering [src..src+count]. *)

val forward : t -> Msg.t -> from_pid:Pid.t -> to_pid:Pid.t -> status
(** Thoth's Forward: pass a received message (possibly rewritten as [msg])
    to another server.  [from_pid] must be awaiting reply from the caller;
    afterwards it awaits reply from [to_pid], whose Reply travels directly
    back to it — the forwarder drops out of the exchange.  Works across
    workstations: the sender's kernel is notified so retransmission and
    segment grants retarget. *)

(** {1 Naming and time} *)

val set_pid : t -> logical_id:int -> Pid.t -> scope -> unit
val get_pid : t -> logical_id:int -> scope -> Pid.t option
(** [None] after broadcast retries time out. *)

val get_time : t -> Vsim.Time.t
(** Charged like the real GetTime syscall. *)

(** {1 Introspection} *)

type stats = {
  packets_sent : int;
  packets_received : int;
  retransmissions : int;
  timeouts_fired : int;
      (** retransmission-timer expiries (Send, MoveTo, MoveFrom, GetPid);
          [>= retransmissions] since the final, exhausting expiry
          retransmits nothing *)
  duplicates_filtered : int;
  reply_pendings_sent : int;
  nonexistent_nacks_sent : int;
      (** NACKs sent for packets addressed to nonexistent processes *)
  gap_naks_sent : int;  (** data-transfer gap NAKs (missing MoveTo/MoveFrom
      data packets requested for retransmission) *)
  aliens_created : int;
  alien_pool_full : int;
  aliens_reclaimed : int;
      (** replied aliens evicted under pool pressure (only ever past their
          sender's plausible retransmission window) *)
  hosts_suspected : int;
      (** failure-detector trips: destinations marked suspect *)
  sends_local : int;
  sends_remote : int;
  moves_local : int;
  moves_remote : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** Sizes of the kernel's protocol tables, for invariant checks.  After a
    workload quiesces, everything here except [aliens_replied] /
    [aliens_forwarded] (cached replies awaiting reclaim) and
    [mt_ins_total] (completed transfers retained as duplicate filters)
    must be zero. *)
type table_counts = {
  aliens_live : int;  (** A_queued or A_received: exchange unanswered *)
  aliens_replied : int;
  aliens_forwarded : int;
  mt_ins_incomplete : int;  (** inbound MoveTo trains still missing data *)
  mt_ins_total : int;
  mt_outs_pending : int;
  mf_outs_pending : int;
  getpid_pending : int;
  sends_blocked : int;  (** local processes stuck in a remote Send *)
}

val table_counts : t -> table_counts
val pp_table_counts : Format.formatter -> table_counts -> unit

val rto_estimate_ns : t -> dst_host:int -> int
(** The current un-backed-off retransmission interval for [dst_host]: the
    configured T in [Fixed] mode, the live srtt/rttvar-derived estimate in
    [Adaptive] mode (tests and observability). *)
