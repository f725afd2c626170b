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
      twice raises.  A never-resumed fiber stays blocked forever (it leaks,
      which is harmless in a finite simulation).
    - Exceptions raised in a fiber propagate out of the engine's [run]. *)

type t

type state =
  | Runnable  (** spawned, not yet started *)
  | Running
  | Blocked of string  (** suspended; the string names the reason *)
  | Terminated

val spawn : Engine.t -> ?name:string -> (unit -> unit) -> t
(** Create a fiber; its body starts at the current simulation instant (via a
    zero-delay event), not synchronously. *)

val id : t -> int
val name : t -> string
val state : t -> state
val engine : t -> Engine.t

val self : unit -> t
(** The currently executing fiber. Must be called from within a fiber. *)

val suspend : reason:string -> (('a -> unit) -> unit) -> 'a
(** [suspend ~reason register] parks the current fiber.  [register] is
    called immediately with the resume function; when some event later calls
    that function with a value, the fiber continues with that value. *)

val sleep : Time.t -> unit
(** Block the current fiber for a simulated duration. *)

val join : t -> unit
(** Block until the given fiber terminates. Returns immediately if it
    already has. *)

val kill : t -> unit
(** Terminate the fiber without running it further: a not-yet-started
    body never starts, a parked continuation is abandoned, and any
    resume function already registered with another subsystem becomes a
    silent no-op.  Used to model processes lost in a host crash.  Join
    waiters are woken.  Idempotent; killing a terminated fiber is a
    no-op. *)

val terminated : t -> bool

val pp : Format.formatter -> t -> unit
