(* [Hashtbl.hash] on an int is one MurmurHash3 round over the tagged
   value, folded to 32 bits, then the MurmurHash3 finaliser
   (runtime/hash.c: caml_hash_mix_intnat and FINAL_MIX).  Computed here
   in OCaml it is a few multiplies with no C call, and it puts every key
   in the bucket a polymorphic table would. *)

let mask32 = 0xFFFF_FFFF
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let hash i =
  (* The tagged value 2i+1 as a 64-bit intnat [d] (OCaml 5 native code
     is 64-bit only), folded to 32 bits as (d >> 32) ^ (d >> 63) ^ d. *)
  let n = ((i lsl 1) lor 1) lxor (i asr 31) lxor (i asr 62) land mask32 in
  let d = n * 0xcc9e2d51 land mask32 in
  let d = rotl32 d 15 * 0x1b873593 land mask32 in
  (* The mix starts from seed 0, so its [h ^= d] leaves [h = d]. *)
  let h = ((rotl32 d 13 * 5) + 0xe6546b64) land mask32 in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land mask32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land mask32 in
  h lxor (h lsr 16) land 0x3FFF_FFFF

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
