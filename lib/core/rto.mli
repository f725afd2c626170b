(** Per-destination retransmission timeouts (Jacobson/Karn) and the
    failure detector that rides on them.

    One estimator per destination key: a remote host id, or a negative
    pseudo-destination the kernel chooses (GetPid keys its broadcasts by
    the logical id being resolved).  An unseen key starts from a seed
    derived from the CPU cost model. *)

(** [Fixed] arms the configured timeout verbatim (the paper's T).
    [Adaptive] estimates the round trip per destination (srtt/rttvar,
    Karn's rule for samples) and backs off exponentially with
    deterministic jitter drawn from the simulation RNG. *)
type mode = Fixed | Adaptive

type t

val create :
  Vsim.Engine.t ->
  host:int ->
  model:Vhw.Cost_model.t ->
  mode:mode ->
  fixed_ns:int ->
  min_ns:int ->
  max_ns:int ->
  ns_per_byte:int ->
  suspect_threshold:int ->
  t
(** The estimators of the kernel on [host]: [fixed_ns] is T, [min_ns] and
    [max_ns] clamp adaptive timeouts (and cap backoff), [ns_per_byte]
    size-scales them, and [suspect_threshold] consecutive exhaustions mark
    a destination suspect. *)

val reset : t -> unit
(** Forget every destination (host crash).  The counters survive. *)

val suspected : t -> dst:int -> bool
(** Whether [dst] is currently suspect; [false] for an unseen key, which
    this probe does not create. *)

val base_ns : t -> dst:int -> bytes:int -> int
(** The timeout without backoff or jitter, for [bytes] outstanding: a
    conservative interval for timer-free decisions.  Draws no RNG. *)

val current_ns : t -> dst:int -> bytes:int -> int
(** {!base_ns} shifted by the live backoff and capped: the interval a
    peer's timers plausibly use right now.  Draws no RNG. *)

val timeout_ns : t -> dst:int -> bytes:int -> int
(** The interval to arm now: {!current_ns}, plus jitter on backed-off
    [Adaptive] arms only, so a loss-free run consumes no RNG. *)

val note_expiry :
  t -> dst:int -> kind:string -> seq:int -> attempt:int -> rto_ns:int -> unit
(** A timer armed for [rto_ns] expired: count it, grow [dst]'s backoff
    and trace a [Backoff] event of [kind]. *)

val note_success : t -> dst:int -> sample_ns:int option -> unit
(** [dst] answered: clear its failure count and suspicion.  A [Some]
    round-trip sample (Karn-clean) also folds into the estimate and
    resets the backoff. *)

val note_exhausted : t -> dst:int -> bool
(** An exchange with [dst] spent its retries.  Returns whether [dst] is
    now suspect; it becomes so after [suspect_threshold] consecutive
    exhaustions, tracing [Host_suspected] once. *)

val timeouts : t -> int
(** Timer expiries so far, both modes. *)

val suspects : t -> int
(** Destinations marked suspect so far. *)
