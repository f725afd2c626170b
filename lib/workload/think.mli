(** Think-time / inter-request distributions for workload generators. *)

type t =
  | Zero
  | Constant of Vsim.Time.t
  | Uniform of Vsim.Time.t * Vsim.Time.t  (** inclusive low, exclusive high *)
  | Exponential of Vsim.Time.t  (** mean *)

val sample : t -> Vsim.Rng.t -> Vsim.Time.t
val pp : Format.formatter -> t -> unit
