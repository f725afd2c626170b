(** The checker's two-client cache-coherence workload.

    Three hosts: client A, a restartable journaled file server whose
    crash/restart the schedule may script, and client B.  Both clients
    run write-through caches with [~lease:true ~recover:true] and take
    turns mutating a shared three-block file in a fixed lockstep
    script; every read names the exact bytes of the latest acknowledged
    write, so a stale cache hit is identifiable byte-for-byte.  The
    script also measures the lease fast path: client A closes and
    reopens the file under a still-valid lease and the report records
    how many server requests that reopen cost (the protocol promises
    zero).  The [shared] and [shared-crash] {!Checker.Scenario}s judge
    the report. *)

type op_result = Workload.op_result = { op : string; ok : bool; detail : string }

type report = {
  completed : bool;  (** quiesced within budget and both clients finished *)
  events : int;
  frames : int;  (** completed transmissions in this run *)
  crashes : int;  (** host-crash events that fired *)
  restarts : int;  (** restarts that fired *)
  ops : op_result list;  (** both clients' outcomes, in program order *)
  stale : string list;
      (** no-stale-read findings: reads that did not observe the latest
          acknowledged write (or failed outright) *)
  lease_reopen_rpcs : int option;
      (** server requests consumed by client A's reopen-under-lease;
          [None] when the lease had already been lost (e.g. a crash
          schedule voided it), in which case the fast path is untested *)
  breaks_a : int;  (** Break_lease callbacks client A acknowledged *)
  breaks_b : int;  (** Break_lease callbacks client B acknowledged *)
  leases_granted : int;
  leases_broken : int;
  leases_expired : int;
  kernels : Workload.kernel_probe list;
  medium : Vnet.Medium.stats;
}

val file_blocks : int
(** Size of the shared file, in blocks. *)

val op_count : int
(** Number of mandatory client operations in the script (awaits that
    time out are recorded as extra failed ops). *)

val default_max_events : int

val lease_term_ns : int
(** The lease term the workload's server grants — far longer than any
    depth<=2 run, so in-sweep coherence is driven entirely by explicit
    breaks and failover recovery, never by silent expiry. *)

val run :
  ?fault:Vnet.Fault.t ->
  ?max_events:int ->
  ?trace:bool ->
  ?seed:int64 ->
  unit ->
  report
(** Build a fresh three-host testbed, run the script under [fault]
    (whose host events crash host 2, the file server), and report.
    Deterministic: equal arguments give equal reports. *)
