(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field, which would hold a boxed int64 and so allocate a box
   on every draw.  The primitives below read and write the buffer
   unboxed, so a draw allocates nothing; the byte order is private to
   the buffer, so the stream is the same on every host. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. *)
let[@inline] int64 t =
  let open Int64 in
  let z = add (get64 t 0) 0x9E3779B97F4A7C15L in
  set64 t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let split t = create (int64 t)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  (* 53 significant bits, mapped to [0, 1). *)
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

(* Degenerate probabilities consume no randomness: a fault-free (or purely
   scripted) run must not perturb any other stream by drawing per packet. *)
let bernoulli t p =
  if p <= 0.0 then false else if p >= 1.0 then true else float t 1.0 < p
let exponential t ~mean = -.mean *. log (1.0 -. float t 1.0)
