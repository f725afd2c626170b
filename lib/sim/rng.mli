(** Deterministic pseudo-random numbers for the simulator.

    A small splitmix64 generator: fast, seedable, and independent of the
    OCaml runtime's global [Random] state, so simulations are reproducible
    across runs and machines.  Every stochastic decision in the simulator
    (CSMA/CD backoff, fault injection, workload think times) draws from an
    engine-owned [Rng.t]. *)

type t

val create : int64 -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p].  Draws nothing when
    [p <= 0.0] or [p >= 1.0], so degenerate trials leave the stream
    untouched — a scripted fault schedule stays RNG-free. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed value with the given mean. *)
