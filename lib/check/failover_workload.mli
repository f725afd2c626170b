(** The checker's shard-failover workload.

    A sharded file service on one segment: host 1 the client, host 2 the
    primary of shard A over a journaled filesystem, host 3 a standby
    {!Vfs.Replica} sharing shard A's disk, host 4 the primary of shard
    B.  The client routes by file-name prefix through {!Vfs.Names} and
    {!Vfs.Client.Sharded} with session recovery on, writes through shard
    A, and reads both shards.

    Schedule crashes hit host 2 only and are {e crash-stop}: the restart
    hook is a deliberate no-op, because a returned primary next to a
    standby that already ran {!Vfs.Fs.recover} would be two unfenced
    writers on one disk.  The [failover] {!Checker.Scenario} therefore
    enumerates crash-stop points ({!Schedule.enumerate_host} with
    [Crash]); completion under a crash schedule requires the standby to
    take the shard over, and the scenario's judge additionally demands
    that no acknowledged write is lost across the takeover. *)

type op_result = Workload.op_result = { op : string; ok : bool; detail : string }

type report = {
  completed : bool;  (** quiesced within budget and the client finished *)
  events : int;
  frames : int;  (** completed transmissions in this run *)
  crashes : int;  (** host-crash events that fired (host 2) *)
  restarts_ignored : int;  (** restart entries swallowed by the no-op hook *)
  took_over : bool;  (** the standby started serving shard A *)
  probes : int;  (** heartbeat probes the standby issued *)
  ops : op_result list;  (** client-side outcomes, in program order *)
  acked : int list;  (** shard-A blocks whose write the client saw acked *)
  acked_lost : int list;  (** acked blocks not holding the new content —
                              durability violations across failover *)
  torn : int list;  (** blocks neither all-old nor all-new *)
  fsck : string list;  (** {!Vfs.Fs.check} findings on both shards *)
  kernels : Workload.kernel_probe list;
      (** live hosts only — a crash-stopped host's tables are exempt
          from the drain invariant *)
  medium : Vnet.Medium.stats;
}

val op_count : int
(** Number of client operations in the script. *)

val default_max_events : int

val run :
  ?fault:Vnet.Fault.t -> ?max_events:int -> ?seed:int64 -> unit -> report
(** Build a fresh four-host testbed, run the script under [fault] (host
    events crash host 2 for good), and report.  Deterministic: equal
    arguments give equal reports. *)
