(** The fault-schedule explorer: scenarios, invariants, sweep, shrinker.

    The paper claims (Sections 3.2, 5.4) the V IPC protocol stays
    correct under packet loss: retransmissions are filtered, replies are
    cached, non-idempotent operations apply exactly once.  {!explore}
    tests those claims, and the later crash, lease, gateway and failover
    claims, systematically: every depth-1 and depth-2 schedule of a
    {!Scenario} over its baseline run's frames, each run judged against
    the scenario's invariants, and any failure shrunk to a minimal
    replayable schedule. *)

type violation = { invariant : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

(** One checker workload paired with one schedule space. *)
module Scenario : sig
  type outcome = {
    frames : int;  (** completed transmissions in this run *)
    violations : violation list;
        (** empty iff the run upholds every invariant: termination and
            per-op success, the workload's own invariants, protocol-table
            drain and delivery conservation on every medium *)
    pp_digest : Format.formatter -> unit;
        (** deterministic digest of the run (ops, workload state,
            per-kernel stats and tables, medium counters) for replay
            diagnosis; print inside a vertical box *)
  }

  type t = {
    name : string;  (** the [vsim check --scenario] value *)
    label : string;  (** what the CLI summary calls its schedules *)
    op_count : int;  (** client operations in the workload's script *)
    run : ?max_events:int -> ?seed:int64 -> Schedule.t -> outcome;
        (** one workload run under the schedule, judged; [[]] is the
            baseline *)
    enumerate :
      depth:int ->
      frames:int ->
      actions:Vnet.Fault.action list ->
      Schedule.t Seq.t;  (** the schedule space over baseline frames *)
  }

  val net : t
  (** {!Workload.net} under network faults ({!Schedule.enumerate}):
      exactly-once application and data fidelity. *)

  val crash : t
  (** {!Workload.crash} under file-server crash + restart points: no
      acknowledged write lost, no torn block, {!Vfs.Fs.check} clean. *)

  val all : t list
  (** Every scenario [vsim check] can reach, in this order: [net],
      [crash], [shared] and [shared-crash] ({!Workload.shared} under
      network faults, or file-server crash + restart: no stale read, and
      a reopen under a valid lease costs zero server requests), [inet]
      and [inet-crash] ({!Workload.inet} under network faults on the
      client segment, or gateway crash + restart: no unroutable unicast,
      conservation on every segment), and [failover]
      ({!Workload.failover} under crash-stop points of the shard-A
      primary: the standby takes over with no acknowledged write lost). *)

  val find : string -> t option
end

val shrink : run:(Schedule.t -> violation list) -> Schedule.t -> Schedule.t
(** Greedy delta debugging: repeatedly remove any single entry whose
    removal preserves a violation.  The result still violates (per
    [run]) and no strictly smaller single-removal neighbour does. *)

type sweep_failure = {
  schedule : Schedule.t;  (** first violating schedule, enumeration order *)
  minimal : Schedule.t;  (** its shrunk form *)
  violations : violation list;  (** the shrunk form's violations *)
}

type sweep_report = {
  scenario : string;  (** the {!Scenario.t} name *)
  depth : int;
  limit : int;
  schedules_run : int;
      (** 1-based index of the first violating schedule, or the total
          enumerated when clean — identical for any [domains] *)
  baseline_frames : int;
  failure : sweep_failure option;  (** [None] when every schedule passed *)
}

val explore :
  Scenario.t ->
  ?depth:int ->
  ?limit:int ->
  ?actions:Vnet.Fault.action list ->
  ?max_events:int ->
  ?seed:int64 ->
  ?domains:int ->
  unit ->
  (sweep_report, violation list) result
(** Systematic exploration of the scenario's schedules up to [depth]
    (default 2), stopping at the first violation or after [limit]
    schedules.  [Error vs] when the unfaulted baseline itself violates
    (nothing useful can be explored then).  [domains > 1] fans schedule
    runs out across OCaml 5 domains via {!Vsim.Pool} in deterministic
    chunks; the returned report is byte-identical for any domain count. *)

val sweep :
  ?depth:int ->
  ?limit:int ->
  ?actions:Vnet.Fault.action list ->
  ?max_events:int ->
  ?seed:int64 ->
  ?domains:int ->
  unit ->
  (sweep_report, violation list) result
(** {!explore} over {!Scenario.net}, depth 2 by default. *)

val sweep_crash :
  ?depth:int ->
  ?limit:int ->
  ?actions:Vnet.Fault.action list ->
  ?max_events:int ->
  ?seed:int64 ->
  ?domains:int ->
  unit ->
  (sweep_report, violation list) result
(** {!explore} over {!Scenario.crash}, depth 1 by default. *)

val report_to_json : sweep_report -> string
(** Compact, deterministic JSON for [vsim check --json] and CI
    assertions.  Contains no wall-clock or domain-count fields. *)

val repro_file_contents : Scenario.t -> Schedule.t -> violation list -> string
(** The replayable repro-file text for a minimized schedule.  A
    [# scenario: NAME] comment line names the scenario it belongs to;
    {!Schedule.of_string} skips it like any comment. *)

val load_repro :
  ?scenario:Scenario.t -> string -> (Scenario.t * Schedule.t, string) result
(** Parse repro-file text and pick its scenario: the file's
    [# scenario:] line when present ([Error] if [scenario] names another
    one), else [scenario], else {!Scenario.net} — unless the schedule
    holds crash or restart entries, which is an [Error] without an
    explicit [scenario]. *)
