(* [Hashtbl.hash] on an int is one MurmurHash3 round over the tagged
   value, folded to 32 bits, then the MurmurHash3 finaliser
   (runtime/hash.c: caml_hash_mix_intnat and FINAL_MIX).  Computed here
   in OCaml it is a few multiplies with no C call, and it puts every key
   in the bucket a polymorphic table would. *)

let mask32 = 0xFFFF_FFFF
let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let[@inline] hash i =
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

(* The Stdlib's hashtbl.ml specialised to int keys.  The bucket array,
   head insertion, resize threshold, order-preserving resize (in place
   unless a traversal is under way) and the sign of [initial_size] as
   the traversal flag are all kept as they are there, so every walk
   visits bindings in the order a [Hashtbl.t] would.  Keys are
   immutable ints: a probe compares them with [=] on ints, and
   [replace] rewrites only the value.

   A probe first looks in a memo of the cells last found, one for even
   keys and one for odd, so a table hit again and again by the same
   key or two pays a compare, not a hash and a bucket walk.  A memo
   cell is one linked in the table, so [replace] of its key updates
   what the memo sees.  Whatever unlinks or copies cells forgets the
   memo: [remove] of the memo's key, [reset], [filter_map_inplace], a
   resize that copies cells (one from inside a traversal) and [copy]. *)

type 'a bucket =
  | Empty
  | Cons of { key : int; mutable data : 'a; mutable next : 'a bucket }

type 'a t = {
  mutable size : int;
  mutable data : 'a bucket array;  (* a power of two long *)
  mutable initial_size : int;  (* negative while a traversal is under way *)
  mutable even : 'a bucket;  (* the cell of an even key last found, or [Empty] *)
  mutable odd : 'a bucket;  (* the same for odd keys *)
}

let ongoing_traversal h = h.initial_size < 0
let flip_ongoing_traversal h = h.initial_size <- -h.initial_size

let rec power_2_above x n =
  if x >= n then x
  else if x * 2 > Sys.max_array_length then x
  else power_2_above (x * 2) n

let create n =
  let s = power_2_above 16 n in
  { size = 0; data = Array.make s Empty; initial_size = s; even = Empty;
    odd = Empty }

let forget h =
  h.even <- Empty;
  h.odd <- Empty

let[@inline] memo h key = if key land 1 = 0 then h.even else h.odd

let[@inline] remember h key cell =
  if key land 1 = 0 then h.even <- cell else h.odd <- cell

let reset h =
  forget h;
  let len = Array.length h.data in
  if len = abs h.initial_size then begin
    if h.size > 0 then begin
      h.size <- 0;
      Array.fill h.data 0 len Empty
    end
  end
  else begin
    h.size <- 0;
    h.data <- Array.make (abs h.initial_size) Empty
  end

let copy_bucketlist = function
  | Empty -> Empty
  | Cons { key; data; next } ->
      let rec loop prec = function
        | Empty -> ()
        | Cons { key; data; next } ->
            let r = Cons { key; data; next } in
            (match prec with
            | Empty -> assert false
            | Cons prec -> prec.next <- r);
            loop r next
      in
      let r = Cons { key; data; next } in
      loop r next;
      r

let copy h =
  { h with data = Array.map copy_bucketlist h.data; even = Empty; odd = Empty }

let length h = h.size

(* The array's length is a power of two, so the masked hash is in
   bounds.  [data]'s type is written out so the read is specialised to
   an array of pointers, with no float-array test. *)
let[@inline] index (data : _ bucket array) key =
  hash key land (Array.length data - 1)

let[@inline] bucket (data : _ bucket array) key =
  Array.unsafe_get data (index data key)

let insert_all_buckets inplace odata ndata =
  let nsize = Array.length ndata in
  let ndata_tail = Array.make nsize Empty in
  let rec insert_bucket = function
    | Empty -> ()
    | Cons { key; data; next } as cell ->
        let cell = if inplace then cell else Cons { key; data; next = Empty } in
        let nidx = index ndata key in
        (match ndata_tail.(nidx) with
        | Empty -> ndata.(nidx) <- cell
        | Cons tail -> tail.next <- cell);
        ndata_tail.(nidx) <- cell;
        insert_bucket next
  in
  for i = 0 to Array.length odata - 1 do
    insert_bucket odata.(i)
  done;
  if inplace then
    for i = 0 to nsize - 1 do
      match ndata_tail.(i) with Empty -> () | Cons tail -> tail.next <- Empty
    done

let resize h =
  let odata = h.data in
  let nsize = Array.length odata * 2 in
  if nsize < Sys.max_array_length then begin
    let ndata = Array.make nsize Empty in
    let inplace = not (ongoing_traversal h) in
    h.data <- ndata;
    if not inplace then forget h;
    insert_all_buckets inplace odata ndata
  end

(* The cell bound to [key] in the bucket, remembered, or [Empty]. *)
let rec find_cell h (key : int) = function
  | Empty -> Empty
  | Cons { key = k; next; _ } as cell ->
      if k = key then begin
        remember h key cell;
        cell
      end
      else find_cell h key next

(* The cell bound to [key], from the memo when it holds it. *)
let[@inline] cell h key =
  match memo h key with
  | Cons { key = k; _ } as cell when k = key -> cell
  | Empty | Cons _ -> find_cell h key (bucket h.data key)

let find h key =
  match cell h key with Cons { data; _ } -> data | Empty -> raise Not_found

let find_opt h key =
  match cell h key with Cons { data; _ } -> Some data | Empty -> None

let mem h key = cell h key != Empty

(* [true] when [key] has no binding in the bucket; otherwise rebinds
   it. *)
let rec replace_bucket (key : int) data = function
  | Empty -> true
  | Cons ({ key = k; next; _ } as slot) ->
      if k = key then begin
        slot.data <- data;
        false
      end
      else replace_bucket key data next

let replace h key data =
  match memo h key with
  | Cons ({ key = k; _ } as slot) when k = key -> slot.data <- data
  | Empty | Cons _ ->
      let i = index h.data key in
      let l = Array.unsafe_get h.data i in
      if replace_bucket key data l then begin
        Array.unsafe_set h.data i (Cons { key; data; next = l });
        h.size <- h.size + 1;
        if h.size > Array.length h.data lsl 1 then resize h
      end

let rec remove_bucket h i (key : int) prec = function
  | Empty -> ()
  | Cons { key = k; next; _ } as c ->
      if k = key then begin
        h.size <- h.size - 1;
        match prec with
        | Empty -> Array.unsafe_set h.data i next
        | Cons c -> c.next <- next
      end
      else remove_bucket h i key c next

let remove h key =
  (match memo h key with
  | Cons { key = k; _ } when k = key -> remember h key Empty
  | Empty | Cons _ -> ());
  let i = index h.data key in
  remove_bucket h i key Empty (Array.unsafe_get h.data i)

(* A traversal flips [initial_size] negative for its extent, so a
   [replace] from inside it resizes by copying cells rather than
   relinking the ones being walked. *)

let rec iter_bucket f = function
  | Empty -> ()
  | Cons { key; data; next } ->
      f key data;
      iter_bucket f next

let iter f h =
  let old_trav = ongoing_traversal h in
  if not old_trav then flip_ongoing_traversal h;
  try
    let d = h.data in
    for i = 0 to Array.length d - 1 do
      iter_bucket f d.(i)
    done;
    if not old_trav then flip_ongoing_traversal h
  with exn when not old_trav ->
    flip_ongoing_traversal h;
    raise exn

let rec fold_bucket f b accu =
  match b with
  | Empty -> accu
  | Cons { key; data; next } -> fold_bucket f next (f key data accu)

let fold f h init =
  let old_trav = ongoing_traversal h in
  if not old_trav then flip_ongoing_traversal h;
  try
    let d = h.data in
    let accu = ref init in
    for i = 0 to Array.length d - 1 do
      accu := fold_bucket f d.(i) !accu
    done;
    if not old_trav then flip_ongoing_traversal h;
    !accu
  with exn when not old_trav ->
    flip_ongoing_traversal h;
    raise exn

let rec filter_map_inplace_bucket f h i prec = function
  | Empty -> (
      match prec with Empty -> h.data.(i) <- Empty | Cons c -> c.next <- Empty)
  | Cons ({ key; data; next } as c) as slot -> (
      match f key data with
      | None ->
          h.size <- h.size - 1;
          filter_map_inplace_bucket f h i prec next
      | Some data ->
          (match prec with
          | Empty -> h.data.(i) <- slot
          | Cons c -> c.next <- slot);
          c.data <- data;
          filter_map_inplace_bucket f h i slot next)

let filter_map_inplace f h =
  forget h;
  let d = h.data in
  let old_trav = ongoing_traversal h in
  if not old_trav then flip_ongoing_traversal h;
  try
    for i = 0 to Array.length d - 1 do
      filter_map_inplace_bucket f h i Empty h.data.(i)
    done;
    if not old_trav then flip_ongoing_traversal h
  with exn when not old_trav ->
    flip_ongoing_traversal h;
    raise exn
