(** The discrete-event simulation engine.

    An engine owns the simulated clock, the event queue and a deterministic
    random stream.  All activity in a simulation — process resumption, packet
    delivery, CPU grants, disk completions, timers — flows through the
    engine's event queue, which is what makes runs reproducible.

    The queue is an indexed binary heap ({!Eventq}): scheduling, firing
    and cancelling an event are O(log n) and allocate nothing in steady
    state.  {!cancel} removes the event at once, and cancelling an event
    that already fired or was cancelled is a no-op.  A {!handle} belongs
    to the engine that issued it; cancel it only through that engine.

    Exceptions raised inside event callbacks propagate out of {!run}: a bug
    in simulated code fails the whole run loudly rather than being lost. *)

type t

type handle = Eventq.handle
(** Cancellable handle for a scheduled event: an immediate int that
    belongs to the engine that issued it. *)

val create : ?seed:int64 -> unit -> t
(** Fresh engine with clock at 0. Default seed is a fixed constant, so all
    simulations are reproducible unless a seed is supplied. *)

val now : t -> Time.t
(** Current simulated time. *)

val rng : t -> Rng.t
(** The engine's random stream. *)

val at : t -> ?kind:Eventq.kind -> Time.t -> (unit -> unit) -> handle
(** [at t time fn] schedules [fn] at absolute [time]; [time] must not be in
    the past.  [kind] labels the event for the profiler (an interned
    {!Eventq.Kind.t}, e.g. [Eventq.Kind.intern "net.deliver"] bound once
    at module initialisation); unlabeled events count under ["other"]. *)

val after : t -> ?kind:Eventq.kind -> Time.t -> (unit -> unit) -> handle
(** [after t delay fn] schedules [fn] at [now t + delay]. *)

val at_kind : t -> kind:Eventq.kind -> Time.t -> (unit -> unit) -> handle
val after_kind : t -> kind:Eventq.kind -> Time.t -> (unit -> unit) -> handle
(** {!at} and {!after} with the kind required, for the per-event
    schedulers: passing it allocates nothing, where an optional [?kind]
    boxes a [Some] per call. *)

val cancel : t -> handle -> unit
(** Cancel a scheduled event of this engine: it leaves the queue at once
    (O(log n)) and its closure is released.  A no-op once the event has
    fired or been cancelled. *)

val run : ?until:Time.t -> t -> unit
(** Execute events in order until the queue is empty, or until the clock
    would pass [until] (the clock is then set to [until]). *)

val step : t -> bool
(** Execute the single earliest event. [false] if the queue was empty.
    No event fires in place inside a step: a CPU wait parks. *)

val run_bounded :
  ?until:Time.t -> max_events:int -> t -> [ `Quiescent of int | `Exhausted of int ]
(** Like {!run}, but stop after executing [max_events] events.  Returns
    [`Quiescent n] when the queue drained (or the clock reached [until])
    after [n] events, [`Exhausted n] when the budget ran out first — the
    checker's deterministic stand-in for "this run never terminates". *)

val pending : t -> int
(** Number of live scheduled events. *)

(** {1 Processes and the end of an engine's life}

    An engine owns the {!Proc} fibers spawned on it.  A fiber parked
    when its engine is dropped would keep its stack for good, so the
    owner of a finished engine ends it with {!Proc.reap}: every process
    is killed, every parked continuation is discontinued (its
    [Fun.protect] finalisers run, its stack goes back to the runtime)
    and no event fires.  Nothing should read the world afterwards except
    what was taken from it before.  These accessors are the mechanism
    {!Proc} uses. *)

type fiber = ..
(** A process the engine owns; {!Proc} adds its constructor. *)

val add_fiber : t -> fiber -> unit
(** Register a process at spawn. *)

val take_fibers : t -> fiber list
(** Every process registered since the last call, newest first; the
    engine forgets them. *)

val running : t -> bool
(** [true] while {!step} or {!run_bounded} (and so {!run}) is executing
    a callback of this engine. *)

val current : t -> int
(** The {!Proc.id} of the process this engine is running now, or [0]
    (no process has it) while it runs a plain event callback or none.
    An int read, where [Proc.self] performs an effect: it is how the
    kernel finds its caller on every call. *)

val set_current : t -> int -> unit
(** {!Proc} keeps {!current}: it sets it to a process's id when it
    starts or resumes the process, and puts back the id it replaced
    when the process parks, returns or raises. *)

(** {1 Running a process's next event in place}

    A process {e holds the tail} of the event now firing when a tail
    resume ({!Proc.suspend_tail}) woke it from a plain callback: the
    contract of such a resume is that it is the callback's last call,
    so once the process parks again nothing runs until the engine takes
    its next event.  If that process is about to park for an event
    that is provably the next to fire (its CPU grant), it may instead
    fire the event in place with {!advance} and carry on, with no park,
    no effect and no queue entry: the run is the same event for event. *)

val mark_tail : t -> int -> unit
(** [mark_tail t id]: process [id], resumed now by a tail resume, holds
    the tail of the event now firing, if that event is a plain callback
    ({!current} is [0]).  A process resumed from inside another holds
    nothing: the other runs on once it parks.  Every fired event starts
    with no holder.  {!Proc} calls this. *)

val unmark_tail : t -> int -> unit
(** [unmark_tail t id]: process [id] no longer holds the tail (it was
    killed, so its wake-ups are no-ops and it must not run on). *)

val next_is : t -> Time.t -> bool
(** [next_is t time] is [true] iff an event scheduled now at [time]
    would be the next to fire and fire in this drain, with the running
    process holding the tail: {!run_bounded} (not {!step}) is draining,
    [time] is within its [until] and it may fire one more event within
    [max_events], and every pending event is strictly later than
    [time]. *)

val advance : t -> kind:Eventq.kind -> Time.t -> unit
(** [advance t ~kind time] fires, in place, the event {!next_is} [t time]
    just vouched for: it sets the clock to [time] and counts one fired
    event of [kind], in {!run_bounded}'s count and in the profile, where
    {!Profile.in_place} also counts it.  The caller then carries on as
    that event's callback would have. *)

(** {1 Tracing}

    Each engine carries its own list of tracers, so two engines in one
    process never share observability state.  Prefer the {!Trace} module's
    [attach]/[event] wrappers; these accessors are the underlying
    mechanism. *)

val add_tracer : t -> (Time.t -> Event.t -> unit) -> unit
(** Append a tracer; tracers run in attachment order on every event. *)

val clear_tracers : t -> unit

val tracers : t -> (Time.t -> Event.t -> unit) list

val traced : t -> bool
(** [true] iff at least one tracer is attached. *)

val set_create_hook : (t -> unit) option -> unit
(** Install a domain-local hook invoked on every engine returned by
    {!create} on this domain.  Used by [bin/vsim] to attach trace sinks
    to engines constructed inside experiment rigs; clear it ([None]) when
    done.  {!Pool} worker domains start with no hook, so engines built
    inside parallel jobs stay unobserved unless the job installs its
    own. *)

val get_create_hook : unit -> (t -> unit) option
(** The currently installed hook, so callers that need a second hook can
    chain rather than clobber it (restore the saved value afterwards). *)

val with_create_hook : (t -> unit) option -> (unit -> 'a) -> 'a
(** [with_create_hook h f] runs [f] with [h] installed and then restores
    the previous hook, whether [f] returns or raises.  It replaces the
    previous hook rather than chaining it; a caller that wants both gets
    it with {!get_create_hook} and calls it from [h]. *)

(** {1 Profiling}

    Opt-in per engine.  When enabled, the engine accounts every fired
    event into a {!Profile.t}: per-kind fire counts and wall-clock
    buckets, and a count of the events fired in place ({!advance}). *)

val enable_profiling : ?profile:Profile.t -> t -> Profile.t
(** Enable profiling on this engine, creating a fresh {!Profile.t} unless
    one is supplied (several engines may share one profile, which is how
    [vsim --profile] aggregates a whole command).  Idempotent: if already
    enabled, returns the existing profile. *)

val profile : t -> Profile.t option
