(** The checker's cross-segment (internetwork) workload.

    Two segments joined by a {!Vnet.Gateway}: a client alone on a 3 Mb
    Ethernet, an echo service and a file server together on a 10 Mb one.
    Every exchange — the GetPid broadcast, the echo send-receive-reply,
    and the file open/read/write/close — crosses the gateway.  Schedule
    host events crash and restart the GATEWAY rather than a kernel: a
    down gateway silently eats all inter-segment traffic, partitioning
    the client from every service it uses.  Scripted network faults act
    on segment 0 (the client's segment).

    The workload's kernel config deepens the retry budget so a full
    default gateway outage (50 ms against a 10 ms fixed T) is survivable;
    the [inet] and [inet-crash] {!Checker.Scenario}s therefore demand
    that every operation still succeeds under any depth-2 schedule. *)

type op_result = Workload.op_result = { op : string; ok : bool; detail : string }

type report = {
  completed : bool;  (** quiesced within budget and the client finished *)
  events : int;
  frames : int;
      (** completed transmissions on segment 0 — the namespace schedule
          frame positions refer to *)
  gw_crashes : int;
  gw_restarts : int;
  ops : op_result list;  (** client-side outcomes, in program order *)
  echoes_served : int;
  kernels : Workload.kernel_probe list;
  media : Vnet.Medium.stats list;  (** per segment, in segment order *)
  gateway : Vnet.Gateway.stats;
}

val inet_config : Vkernel.Kernel.config
(** {!Workload.fast_config} with [max_retries] deep enough to ride out a
    default gateway outage. *)

val op_count : int
(** Number of client operations in the script. *)

val default_max_events : int

val run :
  ?fault:Vnet.Fault.t -> ?max_events:int -> ?seed:int64 -> unit -> report
(** Build a fresh two-segment topology, run the script under [fault]
    (host events crash/restart the gateway; network faults act on
    segment 0), and report.  Deterministic: equal arguments give equal
    reports. *)
