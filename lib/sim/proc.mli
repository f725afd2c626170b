(** Simulated processes as effect-handler fibers.

    A {!t} is a lightweight thread of simulated execution.  Inside a fiber,
    code can {!suspend} itself, registering a resume function with whatever
    subsystem will later wake it (a CPU grant, a message arrival, a disk
    completion).  Resumption happens from event callbacks, so all
    interleaving is governed by the engine's event queue.

    User code written against the V kernel API runs inside these fibers and
    reads exactly like the paper's client/server pseudo-code: calls such as
    [Kernel.send] simply block until the reply arrives.

    Rules:
    - [suspend]'s resume function must be called at most once; calling it
      twice raises.  A parked fiber holds its stack until it is resumed or
      its engine is ended with {!reap}; the owner of a finished engine
      reaps it, or every process still parked there (a server waiting in
      Receive, a fiber {!kill}ed in a crash) keeps its stack for good.
    - Exceptions raised in a fiber propagate out of the engine's [run]. *)

type t

val spawn : Engine.t -> ?name:string -> (unit -> unit) -> t
(** Create a fiber; its body starts at the current simulation instant (via a
    zero-delay event), not synchronously. *)

val id : t -> int
val name : t -> string
val engine : t -> Engine.t

val self : unit -> t
(** The currently executing fiber, by an effect its handler answers
    without allocating.  Must be called from within a fiber.  Code that
    holds the engine reads the running fiber's id with
    {!Engine.current} instead, which {!Proc} keeps: it sets it when it
    starts or resumes a fiber and restores the resumer's when the fiber
    parks, returns or raises. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the current fiber.  [register] is called
    immediately, outside the fiber, with the resume function; when some
    event later calls that function with a value, the fiber continues
    with that value.  A park records nothing about the fiber but the
    continuation it waits in.  Its resume is a plain one: the callback
    that calls it loses the tail of its event ({!Engine.drop_tail}),
    since it runs on once the fiber parks again. *)

val suspend_tail : (('a -> unit) -> unit) -> 'a
(** [suspend_tail register] parks like {!suspend}, with a {e tail
    resume}: one called from a plain event callback must be that
    callback's last call (the callback is the resume itself, as a CPU
    grant's is, or ends with it).  Called from inside
    another process it is an ordinary resume.  A process woken by a
    tail resume from a plain callback that holds the tail of the event
    firing takes it ({!Engine.mark_tail}), so its next CPU wait may run
    in place ({!Engine.next_is}); its next park hands the tail back, so
    that park's [register] holds it and may itself run its last call's
    CPU wait in place.  A started process holds the tail of its start
    event the same way.  A resume that breaks the contract lets events
    fire out of order; when in doubt use {!suspend}. *)

val sleep : Time.t -> unit
(** Block the current fiber for a simulated duration. *)

val join : t -> unit
(** Block until the given fiber terminates. Returns immediately if it
    already has. *)

val kill : t -> unit
(** Terminate the fiber without running it further: a not-yet-started
    body never starts, and any resume function already registered with
    another subsystem becomes a silent no-op.  Used to model processes
    lost in a host crash, so a parked body is not unwound: its
    [Fun.protect] finalisers run only when {!reap} ends the engine, after
    the run has been judged, and until then the continuation keeps its
    stack.  Join waiters are woken, and a killed process that holds the
    tail of the event firing no longer does.  Idempotent; killing a
    terminated fiber is a no-op. *)

val terminated : t -> bool

val reap : Engine.t -> unit
(** End the life of every process spawned on the engine since the last
    [reap].  First each is marked killed, so every resume function
    already handed out becomes a no-op; then every parked continuation,
    killed ones included, is discontinued with a private exception,
    which runs its [Fun.protect] finalisers and returns its stack to the
    runtime.  It fires no event and leaves the clock alone (a finaliser
    may still schedule one).  Call it once nothing will read the world
    again; a second call is a no-op.
    @raise Invalid_argument when called inside one of the engine's
    running callbacks, or when a body catches the teardown and parks
    again (the message names the process). *)

val pp : Format.formatter -> t -> unit
