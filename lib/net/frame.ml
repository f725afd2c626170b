type t = {
  src : Addr.t;
  dst : Addr.t;
  ethertype : int;
  payload : Bytes.t;
  corrupted : bool;
  mutable hash : int;
}

let make ~src ~dst ~ethertype payload =
  if not (Addr.is_valid src) || Addr.is_broadcast src then
    invalid_arg "Frame.make: bad source address";
  if not (Addr.is_valid dst) then invalid_arg "Frame.make: bad destination";
  { src; dst; ethertype; payload; corrupted = false; hash = -1 }

let corrupt t = { t with corrupted = true }

(* Eight payload bytes per step: each 64-bit word (its top byte folded
   into its low byte, as an OCaml int has 63 bits) is xored in and
   mixed by a multiply and an xor-shift; a tail shorter than a word
   goes a byte at a time.  [get_int64_le] reads the word unboxed, so
   hashing allocates nothing. *)
let payload_hash t =
  if t.hash < 0 then begin
    let b = t.payload in
    let n = Bytes.length b in
    let words = n / 8 in
    let h = ref n in
    for i = 0 to words - 1 do
      let w = Bytes.get_int64_le b (8 * i) in
      let x =
        Int64.to_int w lxor Int64.to_int (Int64.shift_right_logical w 56)
      in
      let m = (!h lxor x) * 0x100000001b3 in
      h := m lxor (m lsr 29)
    done;
    for i = 8 * words to n - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
    done;
    let m = !h * 0x9E3779B97F4A7C1 in
    t.hash <- (m lxor (m lsr 31)) land 0x3FFFFFFF
  end;
  t.hash

let length t = Bytes.length t.payload
let is_broadcast t = Addr.is_broadcast t.dst

let pp fmt t =
  Format.fprintf fmt "frame[%a->%a type=%#x len=%d%s]" Addr.pp t.src Addr.pp
    t.dst t.ethertype (length t)
    (if t.corrupted then " CORRUPT" else "")

let ethertype_kernel = 0x0512
let ethertype_wfs = 0x0513
let ethertype_stream = 0x0514
let ethertype_raw = 0x0515
let ethertype_boot = 0x0516
