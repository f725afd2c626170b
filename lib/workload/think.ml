type t =
  | Zero
  | Constant of Vsim.Time.t
  | Uniform of Vsim.Time.t * Vsim.Time.t
  | Exponential of Vsim.Time.t

let sample t rng =
  match t with
  | Zero -> 0
  | Constant ns -> ns
  | Uniform (lo, hi) ->
      if hi <= lo then lo else lo + Vsim.Rng.int rng (hi - lo)
  | Exponential mean ->
      int_of_float (Vsim.Rng.exponential rng ~mean:(float_of_int mean))

let pp fmt = function
  | Zero -> Format.pp_print_string fmt "zero"
  | Constant ns -> Format.fprintf fmt "const(%a)" Vsim.Time.pp ns
  | Uniform (lo, hi) ->
      Format.fprintf fmt "uniform(%a,%a)" Vsim.Time.pp lo Vsim.Time.pp hi
  | Exponential mean -> Format.fprintf fmt "exp(%a)" Vsim.Time.pp mean
