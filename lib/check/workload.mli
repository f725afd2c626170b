(** The checker's workloads and the one harness that runs them.

    A workload is data: the network, the kernel config, the file
    systems, which host the schedule's crash entries hit, a [setup] that
    spawns the workload's own services, and one op script per client.
    {!run} builds the world, runs every client's script through one
    interpreter under a fault, audits, and returns a {!report}: the
    fields every scenario judges the same way, plus the workload's own
    findings in [extra].  Nothing is asserted here; {!Checker} judges
    the report.  doc/CHECKING.md describes the step language. *)

type op_result = { op : string; ok : bool; detail : string }

type kernel_probe = {
  host : int;
  tables : Vkernel.Kernel.table_counts;
  kstats : Vkernel.Kernel.stats;
}

type 'x report = {
  completed : bool;  (** quiesced within budget and every client finished *)
  unfinished : (string * int) option;
      (** when the run quiesced but a client did not reach the end of its
          script: the first such client, and the position in [ops] of
          its last op (0 if it recorded none) *)
  events : int;  (** events executed *)
  frames : int;  (** completed transmissions on the first segment *)
  crashes : int;  (** host-crash events that fired *)
  restarts : int;  (** restart events that fired *)
  ops : op_result list;  (** every client's outcomes, in program order *)
  kernels : kernel_probe list;
      (** every host but a crash-stopped one, whose tables need not
          drain *)
  media : (string * Vnet.Medium.stats) list;  (** labelled, segment order *)
  extra : 'x;  (** the workload's own findings *)
}

(** What the schedule's crash and restart entries act on.  Host events
    and network faults both act on the first segment. *)
type target =
  | Nothing  (** host entries are ignored *)
  | Server of int  (** crash and restart this host's kernel *)
  | Server_stop of int  (** crash-stop it: restarts are counted, not run *)
  | Gateway  (** crash and restart the gateway *)

type 'x t
(** A workload whose report carries ['x]. *)

val fast_config : Vkernel.Kernel.config
(** Fixed 10 ms retransmission timeout. *)

val target : 'x t -> target

val ops : 'x t -> string list
(** The ops the scripts record when every step runs, client by client. *)

val run :
  'x t ->
  ?fault:Vnet.Fault.t ->
  ?max_events:int ->
  ?seed:int64 ->
  unit ->
  'x report
(** Build a fresh world, run the scripts under [fault], audit, and
    report.  Deterministic: equal arguments give equal reports.  [seed]
    overrides the engine's default seed. *)

(** {1 The workloads} *)

type net = {
  ledger : (string * int) list;
      (** requests each server application processed: the kernel's
          duplicate filtering must hold each at exactly one *)
  pages_written : int;  (** file-server write ledger *)
  file_ok : bool;  (** server-side file bytes match the client's write *)
}

val net : net t
(** Three hosts, one client: a Send/Reply exchange, a ReplyWithSegment
    page read, MoveTo and MoveFrom page trains, a Forward whose reply
    bypasses the dispatcher, and a cached write-back file write (GetPid
    broadcast, open, dirty block, flush on close).  Host events are
    ignored. *)

type recovery = {
  acked : int list;  (** blocks whose write the client saw acknowledged *)
  acked_lost : int list;
      (** acked blocks not holding the new image: durability violations *)
  torn : int list;  (** blocks neither all-old nor all-new *)
  fsck : string list;  (** {!Vfs.Fs.check} findings after the run *)
}
(** A post-mortem audit straight at the disk, after {!Vfs.Fs.recover}
    when the host died for good. *)

val crash : recovery t
(** A client and a restartable file server (host 2, crashed and
    restarted by the schedule) over a journaled file system; the client
    opens a file through a write-through cache with session recovery on,
    reads it, overwrites three blocks, reads them back and closes. *)

type shared = {
  stale : string list;
      (** reads that did not observe the latest acknowledged write, or
          failed outright *)
  lease_reopen_rpcs : int option;
      (** server requests consumed by client A's reopen under a lease;
          [None] when the lease had already been lost (a crash schedule
          voided it), so the fast path went untested *)
  breaks_a : int;  (** Break_lease callbacks client A acknowledged *)
  breaks_b : int;
  leases_granted : int;
  leases_broken : int;
  leases_expired : int;
}

val shared : shared t
(** Client A (host 1), a restartable journaled file server (host 2) and
    client B (host 3), both clients with write-through lease caches and
    session recovery, take turns mutating a three-block file in lockstep;
    every read names the bytes of the latest acknowledged write.  Client
    A also closes and reopens the file under its lease. *)

val inet : Vnet.Gateway.stats t
(** A client alone on a 3 Mb segment, an echo service and a file server
    on a 10 Mb one: GetPid, an echo exchange and file access, all across
    the gateway, which the schedule crashes and restarts.  The retry
    budget rides out a full default gateway outage. *)

type failover = {
  took_over : bool;  (** the standby started serving shard A *)
  probes : int;  (** heartbeat probes the standby issued *)
  recovery : recovery;  (** shard A's file; fsck covers both shards *)
}

val failover : failover t
(** A sharded file service: the client (host 1), shard A's primary over
    a journaled file system (host 2), a standby {!Vfs.Replica} sharing
    its disk (host 3) and shard B's primary (host 4).  The client
    routes by name prefix with session recovery on, overwrites blocks
    of shard A and reads both shards.  Host 2's crashes are crash-stop:
    a returned primary next to a standby that already recovered the
    disk would be two unfenced writers. *)
