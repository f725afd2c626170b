(** Priority queue of timed events.

    An indexed binary min-heap keyed by [(time, seq)]: events fire in time
    order, and events scheduled for the same instant fire in insertion
    order.  The latter is essential for determinism — the whole simulator
    relies on it.

    Heap keys are unboxed ints and each pending event's closure and kind
    sit in a slab slot reused through a free list, so a steady-state
    add, pop or cancel allocates nothing.  {!cancel} removes
    the event from the heap at once, in O(log n), and releases its
    closure; the queue holds exactly {!live_count} entries.

    The earliest event may wait outside the heap in a front slot of two
    ints (its time and handle).  Invariant: when the slot is full, its
    entry precedes every heap entry in [(time, seq)] order.  {!add}
    gives the slot to an event that precedes both the front and the
    heap's root, sifting the event it displaces into the heap; every
    other event goes into the heap.  {!take_due}, {!top_time},
    {!cancel}, {!is_empty} and {!live_count} read the slot first.  So a
    step that schedules the next earliest event, the common case, adds
    and takes it in O(1).  The slot changes no order: events fire
    exactly as they would from the heap alone.

    A {!handle} is an immediate int naming one scheduled event of the
    queue that issued it.  Once that event has fired or been cancelled
    the handle is stale, and cancelling it is a no-op, even after its
    slot has been reused.  A handle presented to another queue is
    meaningless there and may cancel an unrelated event. *)

(** Event kinds, interned to small integer ids so the per-event hot path
    never compares or hashes strings.  Intern each kind once at module
    initialisation and reuse the id. *)
module Kind : sig
  type t = private int

  val intern : string -> t
  (** Id for [name], allocating one on first use.  Same string, same id
      for the whole process; safe to call from any domain. *)

  val name : t -> string
  (** Inverse of {!intern}. *)

  val other : t
  (** The default kind, ["other"]. *)

  val count : unit -> int
  (** Number of kinds interned so far. *)

  val of_int : int -> t
  (** The kind with id [i]; raises [Invalid_argument] for an id no
      {!intern} call has produced.  For code (the profiler) that indexes
      its own tables by [(kind :> int)]. *)
end

type kind = Kind.t

type t

type handle [@@immediate]
(** A scheduled event, usable for cancellation. *)

val none : handle
(** A handle that names no event in any queue: cancelling it is a no-op.
    For a timer field that has not been armed yet. *)

val create : unit -> t
(** An empty queue.  It allocates its arrays on the first {!add}. *)

val add : t -> time:Time.t -> kind:kind -> (unit -> unit) -> handle
(** Schedule a callback at an absolute time.  [kind] labels the event for
    the profiler.  Raises [Invalid_argument] when [fn] is {!idle}, and,
    rather than let a handle wrap, once the queue has issued 2{^40}
    handles or already holds 2{^22} pending events. *)

val cancel : t -> handle -> unit
(** Remove a pending event so it never fires, and drop its closure.  A
    no-op for a handle that already fired or was cancelled. *)

val is_empty : t -> bool
(** [true] iff no events are pending. *)

val live_count : t -> int
(** Number of pending events (O(1)). *)

(** {1 The earliest event}

    The engine's allocation-free pop is one {!take_due} call per fired
    event, which leaves the event's time and kind in the queue for
    {!taken_time} and {!taken_kind} to read. *)

val top_time : t -> Time.t
(** Time of the earliest event.  Raises [Invalid_argument] on an empty
    queue. *)

val idle : unit -> unit
(** The callback {!take_due} returns when no event is due; compare with
    [==].  {!add} refuses to schedule it. *)

val take_due : t -> limit:Time.t -> (unit -> unit)
(** If the earliest event's time is at most [limit], remove it, release
    its slot and return its callback, without calling it; otherwise
    return {!idle} and leave the queue as it is. *)

val taken_time : t -> Time.t
(** Time of the event {!take_due} last removed. *)

val taken_kind : t -> kind
(** Kind of the event {!take_due} last removed. *)
