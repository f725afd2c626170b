type t = int

let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000
let to_float_ms t = float_of_int t /. 1e6
let to_float_s t = float_of_int t /. 1e9
let of_float_ms x = int_of_float (Float.round (x *. 1e6))

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (float_of_int t /. 1e3)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_float_ms t)
  else Format.fprintf fmt "%.3fs" (to_float_s t)

let pp_ms fmt t = Format.fprintf fmt "%.2f" (to_float_ms t)
