(** Simulated time.

    All simulated time in this code base is an [int] number of nanoseconds
    since the start of the simulation.  At 63-bit precision this covers
    roughly 146 simulated years, far beyond any experiment here. *)

type t = int
(** Nanoseconds of simulated time. *)

val us : int -> t
(** [us n] is [n] microseconds. *)

val ms : int -> t
(** [ms n] is [n] milliseconds. *)

val sec : int -> t
(** [sec n] is [n] seconds. *)

val to_float_ms : t -> float
(** Time expressed in milliseconds. *)

val to_float_s : t -> float
(** Time expressed in seconds. *)

val of_float_ms : float -> t
(** [of_float_ms x] is [x] milliseconds, rounded to the nearest ns. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print with an adaptive unit, e.g. ["3.18ms"]. *)

val pp_ms : Format.formatter -> t -> unit
(** Pretty-print in milliseconds with two decimals, e.g. ["3.18"]. *)
