type t = int

let nil = 0

let make ~host ~local =
  if host < 0 || host > 0xFFFF then invalid_arg "Pid.make: host out of range";
  if local <= 0 || local > 0xFFFF then
    invalid_arg "Pid.make: local id out of range";
  (host lsl 16) lor local

let host t = (t lsr 16) land 0xFFFF
let local t = t land 0xFFFF
let is_nil t = t = 0
let slots = 0x100
let slot t = t land (slots - 1)

(* The local id's high byte is the generation, counted modulo 256. *)
let next_generation t =
  (t land lnot 0xFFFF) lor ((t + slots) land 0xFF00) lor slot t

let of_int i =
  if i < 0 || i > 0xFFFF_FFFF then invalid_arg "Pid.of_int: out of range";
  i

let to_int t = t
let equal = Int.equal
let compare = Int.compare

let pp fmt t =
  if is_nil t then Format.pp_print_string fmt "<nil>"
  else Format.fprintf fmt "%d.%d" (host t) (local t)
