(** A workstation processor as a chargeable simulation resource.

    Every unit of kernel, interrupt or application work costs processor
    time.  Charges queue FCFS: a charge starts when the CPU becomes free and
    occupies it for the full cost.  This is what produces the paper's
    "Client" and "Server" processor-time columns, the busywork-process
    utilization measurements, and the file-server saturation behaviour of
    Section 7 — a server CPU that is busy delays the next request.

    Three charging forms exist because kernel work comes in three kinds:
    - {!charge} blocks the calling fiber (process context), or runs in
      place when its grant is provably the next event;
    - {!charge_k} schedules a continuation (interrupt context, e.g. packet
      reception, where there is no fiber to block), and {!charge_tail}
      runs it in place when that is provably the next event;
    - {!reserve} books time that nothing waits for (bookkeeping that
      overlaps other work); it schedules no event, but later charges on
      the CPU still queue behind it. *)

type t

val create :
  ?host:int -> Vsim.Engine.t -> model:Cost_model.t -> name:string -> t
(** [host] is the station address used to attribute [Cpu_grant] trace
    events; defaults to 0 for CPUs outside any host. *)

val name : t -> string
val host : t -> int
val model : t -> Cost_model.t
val engine : t -> Vsim.Engine.t

val charge : t -> int -> unit
(** [charge cpu ns] blocks the current fiber until the CPU has executed
    [ns] of work for it.  A charge of [ns <= 0] still waits: it returns
    once the work already queued on the CPU has finished (behind a
    1,000 ns {!charge_k} issued at t = 0 it returns at t = 1,000), and on
    an idle CPU it still yields to the events due now.

    The wait runs in place ({!charge_in_place}) when it can, and parks
    otherwise, with a tail resume ({!Vsim.Proc.suspend_tail}): the
    grant's callback is the resume, so the fiber it wakes holds the tail
    and its next charge may run in place. *)

val charge_in_place : t -> int -> bool
(** [charge_in_place cpu ns] runs {!charge}'s wait without parking if
    its grant is provably the next event ({!Vsim.Engine.next_is}): the
    fiber holds the tail of the event firing, the engine is draining
    (not stepping), the grant's finish is within the drain's [until] and
    [max_events], and every pending event is strictly later.  It then
    books the work as {!charge_k} does (the same [Cpu_grant] trace
    event), sets the clock to the finish, counts a fired [cpu.grant]
    ({!Vsim.Engine.advance}) and returns [true].  Otherwise it changes
    nothing and returns [false]. *)

val charge_k : t -> int -> (unit -> unit) -> unit
(** [charge_k cpu ns k] reserves [ns] of CPU and calls [k] when that work
    completes. Never calls [k] synchronously (even for [ns <= 0]), keeping
    callback re-entrancy out of kernel code. *)

val charge_tail : t -> int -> (unit -> unit) -> unit
(** [charge_tail cpu ns k] is {!charge_k} made as the last call of code
    that holds the tail of the event firing ({!Vsim.Engine.holds_tail}):
    a plain callback, or a park's registration function.  When the
    grant is provably the next event ({!charge_in_place}) it books the
    work, moves the clock and calls [k] at once; otherwise it schedules
    [k] as {!charge_k} does.  Either way [k] runs at the same simulated
    instant, after the same events. *)

val reserve : t -> int -> unit
(** [reserve cpu ns] books [ns] of CPU exactly as [charge_k cpu ns ignore]
    does: {!busy_ns} and {!free_at} advance alike, later charges wait
    behind it, and a traced CPU emits the same [Cpu_grant] event at once.
    It schedules no engine event.  [ns <= 0] reserves nothing. *)

val compute : t -> int -> unit
(** Application-level computation; same semantics as {!charge}. *)

val busy_ns : t -> int
(** Total busy time accumulated since creation. *)

val free_at : t -> Vsim.Time.t
(** Instant at which all currently queued work completes. *)

(** Utilization measurement over a window, mirroring the paper's busywork
    process: mark the start, run the experiment, read the busy fraction. *)
type mark

val mark : t -> mark
val busy_since : t -> mark -> int
(** Busy ns accumulated since the mark. *)

val utilization_since : t -> mark -> float
(** Busy fraction of elapsed simulated time since the mark (0 if no time
    has passed). *)
