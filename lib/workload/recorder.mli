(** Latency/throughput recording for experiments.

    Mirrors the paper's method: run many trials, discard warmup, report
    the mean (and, beyond the paper, percentiles). *)

type t

val create : Vsim.Engine.t -> ?warmup:Vsim.Time.t -> unit -> t
(** Samples taken before [warmup] has elapsed (measured from creation)
    are discarded. *)

val measure : t -> (unit -> 'a) -> 'a
(** Time one operation in simulated time and record it. *)

val count : t -> int
val mean_ms : t -> float
val p95_ms : t -> float

val throughput_per_sec : t -> float
(** Completed operations per simulated second of recording (first to last
    sample). *)
