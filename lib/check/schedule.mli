(** Fault schedules: scripted per-frame actions, their textual repro
    format, and the systematic enumerators.

    A schedule names frames by their 1-based position in the medium's
    completed-transmission order during the unfaulted baseline run of the
    workload, and assigns each an action: a per-frame network fault
    ({!Vnet.Fault.action}) or a host-level crash of the workload's server
    host.  The textual form is whitespace-separated entries — [drop@3],
    [dup@7], [delay@5+15000us], [reorder@9], [crash@4],
    [restart@4+50000us] — with [#] comments, so a minimized reproducer is
    a plain one-line file. *)

type action =
  | Net of Vnet.Fault.action  (** a per-frame network fault *)
  | Crash
      (** power off the instrumented host at the completion instant of
          this frame; it never comes back *)
  | Restart of int
      (** crash as above, then restart the host this many ns later *)

type entry = { frame : int; action : action }
type t = entry list

val to_fault : t -> Vnet.Fault.t
(** Split the schedule into the fault script's per-frame network actions
    and host events.  Which host the crash entries hit is decided by
    whoever installs the {!Vnet.Medium.set_host_handler} hooks — the
    checker workload instruments the file-server host. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; also accepts newlines and [#] comments. *)

val pp : Format.formatter -> t -> unit

val default_actions : Vnet.Fault.action list
(** Drop, Duplicate, Delay 15 ms, Reorder.  The delay is longer than the
    workload's 10 ms retransmission timeout, so a delayed frame both
    forces a retransmission and later lands as a duplicate. *)

val default_restart_ns : int
(** 50 ms: long enough that in-flight exchanges time out and the
    client-side failure detector fires before the host returns. *)

val enumerate :
  depth:int -> frames:int -> actions:Vnet.Fault.action list -> t Seq.t
(** All network-fault schedules with at most [depth] (1 or 2) entries
    over frames [1..frames]: depth-1 schedules first, then depth-2 with
    strictly increasing positions.  Lazy, deterministic, duplicate-free. *)

val enumerate_host :
  host:action ->
  depth:int ->
  frames:int ->
  actions:Vnet.Fault.action list ->
  t Seq.t
(** Host-event schedules: depth 1 is the [host] entry at every frame
    [1..frames] — [Restart ns] for crash + restart points, [Crash] for
    crash-stop points (the host never returns, so completion requires a
    standby to take its service over).  Depth 2 additionally pairs each
    such point with one network fault at every other frame (before or
    after it).  Lazy, deterministic, duplicate-free. *)
