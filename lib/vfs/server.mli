(** The V file server.

    A server implementing the {!Protocol} over a local filesystem, as
    the paper's diskless workstations use it.  By default it is a
    single Receive-loop process; with [config.workers > 1] it becomes
    the paper's "team of processes" (Section 6): a dispatcher process
    owns the registered server pid and Forwards each client request to
    an idle worker, so one worker's disk wait overlaps another's
    request processing.  Workers share the filesystem, the open-file
    table and the per-inode versions.  Operation details:

    - page reads answered with ReplyWithSegment (two packets per read);
    - page writes received with ReceiveWithSegment (two packets per write);
    - the Thoth-style [Read_basic]/[Write_basic] variants using
      MoveTo/MoveFrom (four packets per page — the Section 6.1 comparison);
    - program loading by streaming the file with MoveTo in configurable
      transfer units (Table 6-3), "at most 4 kilobytes at a time" in the
      authors' VAX server, larger here when asked;
    - optional read-ahead: after replying to a sequential read, the server
      fetches the next block from disk before its next Receive — the exact
      delay structure of the Table 6-2 experiment.

    [fs_process_ns] charges extra per-request CPU to model file-system
    processing beyond the kernel cost (the paper estimates ~2.5-3.5 ms from
    LOCUS measurements); it defaults to 0 so that kernel-level numbers are
    visible on their own. *)

type config = {
  transfer_unit : int;  (** MoveTo chunk for program loading, >= 1 *)
  read_ahead : bool;
  fs_process_ns : int;  (** per-request file-system processing time *)
  max_open : int;  (** open-file table size *)
  workers : int;
      (** number of worker processes; [1] (the default) preserves the
          original single-process server byte-for-byte, [> 1] runs the
          dispatcher + worker team and emits [Server_dispatch] trace
          events *)
  register_id : int option;
      (** logical id to register (network scope); default the well-known
          file-server id, [None] to skip registration *)
  lease_term_ns : int;
      (** term of the leases granted on open, read and stat replies to
          clients that stamp a callback pid on their requests
          ({!Protocol.set_request_callback}); [0] disables granting.
          Clients without a callback pid are never granted leases, so
          the default (200 ms) is invisible to lease-unaware clients.
          See doc/LEASES.md. *)
}

val default_config : config

val exec_compute_ns_per_page : int
(** Processor time the Exec facility charges per scanned page (500 us). *)

type t

val start :
  Vkernel.Kernel.t -> Fs.t -> ?config:config -> ?restartable:bool -> unit -> t
(** Spawn the server process on the kernel's host and return immediately;
    the server registers itself and serves forever.  With [restartable]
    (default false) the server registers a {!Vkernel.Kernel.on_restart}
    hook: after a host crash + restart it runs {!Fs.recover} and then
    re-spawns its process team with a fresh handle table — open handles
    and version counters die with the host, disk contents and the
    file system's {!Fs.epoch} survive.  Raises [Invalid_argument] if
    [config.workers < 1], [config.transfer_unit < 1], or [restartable]
    is set on a file system without a journal (its recovery could not
    raise the epoch). *)

val pid : t -> Vkernel.Pid.t
(** The pid clients Send to: the server process itself in single-worker
    mode, the dispatcher in team mode. *)

val workers : t -> int
(** Configured team size. *)

val lease_holders : t -> inum:int -> Vkernel.Pid.t list
(** Callback pids currently holding a live (unexpired, unsuspected)
    lease on [inum], in grant order. *)

val leases_granted : t -> int
(** Leases granted to distinct (inum, callback) pairs (refreshes of an
    existing lease are not re-counted). *)

val leases_broken : t -> int
(** Break_lease callbacks sent before acknowledging conflicting
    mutations.  The server's Send blocks until the holder's callback
    fiber acknowledges the invalidation, so a counted break implies the
    holder's cache was purged before the write was acked. *)

val leases_expired : t -> int
(** Leases dropped {e without} a callback because the holder's term had
    elapsed or its host was suspected by the failure detector. *)

val grace_waits : t -> int
(** Conflicting mutations that had to wait out the post-restart grace
    period.  A restarted server's lease table died with its previous
    incarnation, so until one full lease term has elapsed since restart
    it withholds every conflicting acknowledgement — the only sound
    bound on leases it can no longer enumerate (Gray-Cheriton lease
    recovery).  Zero when the previous incarnation never granted a
    lease. *)

val requests_served : t -> int
val pages_read : t -> int
val pages_written : t -> int
val execs_served : t -> int

val dispatches : t -> int
(** Requests handed to workers by the dispatcher (0 in single-worker
    mode, where no dispatch step exists). *)

val handles_reclaimed : t -> int
(** Open-file handles evicted under open pressure because their owner
    was dead or its host suspected — see {!Vkernel.Kernel.host_suspected}.
    When no handle can be reclaimed a full table answers [Sno_space]. *)
