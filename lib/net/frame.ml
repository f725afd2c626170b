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

let payload_hash t =
  if t.hash < 0 then begin
    let b = t.payload in
    let h = ref 0x811c9dc5 in
    for i = 0 to Bytes.length b - 1 do
      h :=
        (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x01000193 land 0x3FFFFFFF
    done;
    t.hash <- !h
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
