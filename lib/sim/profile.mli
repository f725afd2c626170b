(** Deterministic engine profiler.

    When enabled on an engine ({!Engine.enable_profiling}), every fired
    event is counted under the [kind] it was scheduled with.  Counts are
    pure functions of the event sequence: two same-seed runs produce
    byte-identical {!pp} output.  Wall-clock buckets and GC figures are
    host-process diagnostics, rendered only by {!pp_wall} / the
    accessors so deterministic output stays clean. *)

type t

type entry = {
  mutable fires : int;  (** events of this kind that fired *)
  mutable in_place : int;
      (** of those, the ones a process fired in place
          ({!Engine.advance}): host work, not simulation, so only
          {!pp_wall} prints it *)
  mutable wall_s : float;  (** wall clock spent inside the callbacks *)
}

val create : unit -> t
(** Snapshot [Gc.allocated_bytes] and the wall clock as the baseline. *)

val time : t -> kind:Eventq.kind -> (unit -> unit) -> unit
(** Account one fired event and run its callback.  Called by
    {!Engine.step}; exposed for tests.  Accounting is an array index on
    the interned kind id — no string hashing on the hot path. *)

val in_place : t -> kind:Eventq.kind -> unit
(** Account one event of [kind] fired in place: a fire and an in-place
    fire, with no wall-clock bucket of its own.  Called by
    {!Engine.advance}. *)

val events : t -> int
(** Total events fired, in place or not. *)

val in_place_total : t -> int
(** Events fired in place, over all kinds. *)

val entries : t -> (string * entry) list
(** Per-kind entries sorted by kind name (names resolved through
    {!Eventq.Kind.name}, so output is independent of interning order). *)

val fires : t -> string -> int
(** Fire count of one kind; 0 if never seen. *)

val top_heap_words : unit -> int
(** GC heap high-water mark of the process, in words. *)

val wall_total_s : t -> float

val aggregate : t list -> t
(** Sum per-kind entries and totals across profiles (multi-engine
    commands); the result carries fresh GC/wall baselines. *)

val set_clock : (unit -> float) -> unit
(** Wall-clock source for the buckets; defaults to [Sys.time].  CLIs that
    link [unix] install [Unix.gettimeofday]. *)

val pp : Format.formatter -> t -> unit
(** Deterministic table: fires per kind, plus the total. *)

val pp_wall : Format.formatter -> t -> unit
(** Wall-clock buckets with each kind's in-place count, events/s, and GC
    allocation / heap high-water — nondeterministic (the in-place count
    moves with host code); keep off byte-compared streams. *)
