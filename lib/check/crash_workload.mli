(** The checker's crash-recovery workload.

    Two hosts: a client workstation and a file-server host whose crash
    and restart the schedule scripts ({!Schedule.action}).  The server
    runs restartable over a journaled file system; the client opens a
    pre-populated file through a write-through cache with session
    recovery on, reads it, overwrites three blocks, reads them back and
    closes.  The run report separates what the client was told
    (acknowledged writes) from what the disk actually holds (a direct
    post-mortem audit, running {!Vfs.Fs.recover} first if the host died
    for good) — the [crash] {!Checker.Scenario} judges the distance
    between the two. *)

type op_result = Workload.op_result = { op : string; ok : bool; detail : string }

type report = {
  completed : bool;  (** quiesced within budget and the client finished *)
  events : int;
  frames : int;  (** completed transmissions in this run *)
  crashes : int;  (** host-crash events that fired *)
  restarts : int;  (** restarts that fired *)
  ops : op_result list;  (** client-side outcomes, in program order *)
  acked : int list;  (** file blocks whose write the client saw succeed *)
  acked_lost : int list;  (** acked blocks whose final bytes are not the new
                              content — durability violations *)
  torn : int list;  (** blocks neither all-old nor all-new — atomicity
                        violations *)
  fsck : string list;  (** {!Vfs.Fs.check} findings after the run *)
  kernels : Workload.kernel_probe list;
  medium : Vnet.Medium.stats;
}

val file_blocks : int
(** Size of the workload file, in blocks. *)

val op_count : int
(** Number of client operations in the script. *)

val default_max_events : int
(** Higher than {!Workload.default_max_events}: a crash run spends tens
    of simulated milliseconds in restart delays and recovery probes. *)

val run :
  ?fault:Vnet.Fault.t ->
  ?max_events:int ->
  ?trace:bool ->
  ?seed:int64 ->
  unit ->
  report
(** Build a fresh two-host testbed, run the script under [fault] (whose
    host events crash host 2, the file server), and report.
    Deterministic: equal arguments give equal reports. *)
