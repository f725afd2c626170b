(** Statistics accumulators for experiment harnesses. *)

(** Streaming mean / standard deviation / extrema (Welford's algorithm). *)
module Acc : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0.0 when empty. *)

  val stddev : t -> float
  (** Sample standard deviation; 0.0 with fewer than two samples. *)

  val min : t -> float
  (** [nan] when empty. *)

  val max : t -> float
  (** [nan] when empty. *)

  val total : t -> float
end

(** Stores every sample; supports exact percentiles. Suitable for the
    thousands-of-trials scale of these experiments. *)
module Series : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [\[0,100\]]; nearest-rank on the sorted
      samples. [nan] when empty. *)

  val median : t -> float

  val stddev : t -> float
  (** Sample standard deviation; 0.0 with fewer than two samples. *)

  val min : t -> float
  val max : t -> float
end

(** Fixed-bucket histogram: a value [x] lands in the first bucket whose
    upper bound is [>= x]; values above every bound land in an overflow
    bucket.  Constant memory, used by the metrics registry. *)
module Histogram : sig
  type t

  val create : ?bounds:float array -> unit -> t
  (** [bounds] must be non-empty and strictly increasing; the default is
      decades from 1e3 to 1e9 — microsecond-to-second latencies in ns. *)

  val add : t -> float -> unit
  val count : t -> int
  val sum : t -> float
  val mean : t -> float
  (** 0.0 when empty. *)

  val buckets : t -> (float * int) list
  (** [(upper_bound, count)] per bucket, in bound order; the final entry
      is [(infinity, overflow_count)]. *)

  val quantile : t -> float -> float
  (** [quantile t q] with [q] in [\[0,1\]]: nearest-rank estimate from the
      bucket counts, linearly interpolated within the containing bucket.
      Ranks landing in the overflow bucket report the last finite bound.
      [nan] when empty. *)

  val clear : t -> unit

  val pp : Format.formatter -> t -> unit
  (** Compact one-line rendering; empty buckets are omitted. *)
end

(** Monotonically increasing named counters. *)
module Counter : sig
  type t

  val create : string -> t
  val name : t -> string
  val incr : ?by:int -> t -> unit
  val value : t -> int
  val reset : t -> unit
end
