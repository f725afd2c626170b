(* Event kinds are interned to small ints so the per-event hot path —
   scheduling, heap compares, profiler accounting — never touches a
   string.  Interning is mutex-guarded (worker domains may load modules
   lazily); the name table only ever grows, so racing readers see a
   prefix that already contains every id published to them. *)
module Kind = struct
  type t = int

  let mu = Mutex.create ()
  let names = ref (Array.make 16 "")
  let live = ref 0
  let ids : (string, int) Hashtbl.t = Hashtbl.create 32

  let intern name =
    Mutex.protect mu (fun () ->
        match Hashtbl.find_opt ids name with
        | Some id -> id
        | None ->
            let id = !live in
            if id = Array.length !names then begin
              let bigger = Array.make (2 * id) "" in
              Array.blit !names 0 bigger 0 id;
              names := bigger
            end;
            !names.(id) <- name;
            incr live;
            Hashtbl.replace ids name id;
            id)

  let other = intern "other"

  let name id =
    if id < 0 || id >= !live then
      invalid_arg (Printf.sprintf "Eventq.Kind.name: unknown id %d" id)
    else !names.(id)

  let count () = !live

  let of_int id =
    if id < 0 || id >= !live then
      invalid_arg (Printf.sprintf "Eventq.Kind.of_int: unknown id %d" id)
    else id
end

type kind = Kind.t

(* An indexed binary min-heap.  Heap entry [i] is [times.(i)] and
   [handles.(i)], unboxed ints, so sifting never runs the write barrier.
   Each pending event also owns a slab slot [s] holding its kind, heap
   position and closure in [kinds], [pos] and [fns];
   freed slots are threaded into a free list through [pos].  Every array
   has one element per slot, so a queue of up to 256 slots lives in the
   minor heap, and growing it does not allocate straight into the major
   heap (which would pull a major slice forward).

   A handle packs [seq lsl slot_bits lor slot].  [seq] is unique per
   queue, so comparing handles compares insertion order, and the heap key
   (time, handle) is exactly the (time, seq) order.  A handle is pending
   iff the heap entry at its slot's position carries it: once its event
   has fired or been cancelled no entry does, whatever the slot holds
   now, which is how a stale [cancel] is detected. *)

type handle = int

let slot_bits = 22
let slot_mask = (1 lsl slot_bits) - 1
let max_seq = (1 lsl (62 - slot_bits)) - 1  (* handles stay non-negative *)
let none = -1

let nop () = ()

type t = {
  mutable size : int;
  mutable times : int array;
  mutable handles : int array;
  mutable kinds : int array;
  mutable pos : int array;
      (* a pending slot's heap position; a free slot's successor, or -1 *)
  mutable fns : (unit -> unit) array;
  mutable free : int;  (* first free slot, -1 when every slot is in use *)
  mutable next_seq : int;
}

let create () =
  { size = 0; times = [||]; handles = [||]; kinds = [||]; pos = [||];
    fns = [||]; free = -1; next_seq = 0 }

let grow t =
  let cap = Array.length t.fns in
  let cap' = if cap = 0 then 16 else 2 * cap in
  if cap' > slot_mask + 1 then
    invalid_arg "Eventq.add: too many pending events for the handle's slot bits";
  let extend a x =
    let a' = Array.make cap' x in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.times <- extend t.times 0;
  t.handles <- extend t.handles 0;
  t.kinds <- extend t.kinds 0;
  t.pos <- extend t.pos (-1);
  t.fns <- extend t.fns nop;
  for s = cap to cap' - 2 do
    t.pos.(s) <- s + 1
  done;
  t.free <- cap

(* The sift loops index the heap below [size] and [pos] at slots of
   pending events, all inside the arrays [grow] sized, so they skip the
   bounds checks.  The int annotations keep the stores free of the write
   barrier and the comparisons off the polymorphic compare. *)
let get (a : int array) i = Array.unsafe_get a i
let set (a : int array) i (x : int) = Array.unsafe_set a i x

(* Store entry [(time, h)] at heap position [i]. *)
let place t i time h =
  set t.times i time;
  set t.handles i h;
  set t.pos (h land slot_mask) i

let before (time : int) (h : int) time' h' =
  time < time' || (time = time' && h < h')

(* Put [(time, h)] at the hole [i] or above it. *)
let rec sift_up t i time h =
  if i = 0 then place t 0 time h
  else
    let p = (i - 1) lsr 1 in
    let pt = get t.times p and ph = get t.handles p in
    if before time h pt ph then begin
      place t i pt ph;
      sift_up t p time h
    end
    else place t i time h

(* Put [(time, h)] at the hole [i] or below it. *)
let rec sift_down t i time h =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i time h
  else
    let r = l + 1 in
    let c =
      if
        r < t.size
        && before (get t.times r) (get t.handles r) (get t.times l)
             (get t.handles l)
      then r
      else l
    in
    let ct = get t.times c and ch = get t.handles c in
    if before ct ch time h then begin
      place t i ct ch;
      sift_down t c time h
    end
    else place t i time h

let add t ~time ~kind fn =
  if t.next_seq > max_seq then
    invalid_arg "Eventq.add: event sequence numbers exhausted";
  if t.free < 0 then grow t;
  let s = t.free in
  let h = (t.next_seq lsl slot_bits) lor s in
  t.next_seq <- t.next_seq + 1;
  t.free <- t.pos.(s);
  t.kinds.(s) <- kind;
  t.fns.(s) <- fn;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time h;
  h

(* Return slot [s] to the free list and drop its closure. *)
let release t s =
  t.pos.(s) <- t.free;
  t.fns.(s) <- nop;
  t.free <- s

(* Remove heap entry [i], refilling the hole with the last entry. *)
let remove_at t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let time = t.times.(last) and h = t.handles.(last) in
    let p = (i - 1) / 2 in
    if i > 0 && before time h t.times.(p) t.handles.(p) then
      sift_up t i time h
    else sift_down t i time h
  end

let cancel t h =
  let s = h land slot_mask in
  if s < Array.length t.fns then begin
    let i = t.pos.(s) in
    if i >= 0 && i < t.size && t.handles.(i) = h then begin
      remove_at t i;
      release t s
    end
  end

let is_empty t = t.size = 0
let live_count t = t.size

let top_slot t =
  if t.size = 0 then invalid_arg "Eventq: the queue is empty";
  t.handles.(0) land slot_mask

let top_time t =
  if t.size = 0 then invalid_arg "Eventq: the queue is empty";
  t.times.(0)

let top_kind t = t.kinds.(top_slot t)

let take t =
  let s = top_slot t in
  let fn = t.fns.(s) in
  remove_at t 0;
  release t s;
  fn

let pop t =
  if t.size = 0 then None
  else
    let time = t.times.(0) in
    Some (time, take t)
