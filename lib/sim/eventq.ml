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
   iff it is the front slot's handle or the heap entry at its slot's
   position carries it: once its event has fired or been cancelled
   neither does, whatever the slot holds now, which is how a stale
   [cancel] is detected.

   The earliest pending event may sit outside the heap, in a front slot
   of two ints [front_time] and [front] (its handle, [none] when the
   slot is empty).  Invariant: a full front slot's entry precedes every
   heap entry in (time, handle) order; an empty one leaves the earliest
   event at the heap's root.  An event added before both takes the slot
   (pushing the old front into the heap) and is taken again without a
   sift, which is the common case of a simulation step that schedules
   its own successor.  A front event's slab slot has position -1. *)

type handle = int

let slot_bits = 22
let slot_mask = (1 lsl slot_bits) - 1
let max_seq = (1 lsl (62 - slot_bits)) - 1  (* handles stay non-negative *)
let none = -1

(* What a free slot holds, so it keeps no closure alive, and what
   [take_due] returns when nothing is due. *)
let idle () = ()

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
  mutable front_time : int;
  mutable front : int;  (* the front slot's handle, [none] when empty *)
  mutable taken_time : int;  (* of the event [take_due] last removed *)
  mutable taken_kind : int;
}

let create () =
  { size = 0; times = [||]; handles = [||]; kinds = [||]; pos = [||];
    fns = [||]; free = -1; next_seq = 0; front_time = 0; front = none;
    taken_time = 0; taken_kind = Kind.other }

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
  t.fns <- extend t.fns idle;
  for s = cap to cap' - 2 do
    t.pos.(s) <- s + 1
  done;
  t.free <- cap

(* The sift loops and [take_due] index the heap below [size] and the
   slab at slots of pending events, all inside the arrays [grow] sized,
   so they skip the bounds checks.  The int annotations keep the stores
   free of the write barrier and the comparisons off the polymorphic
   compare. *)
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

(* Insert [(time, h)] into the heap. *)
let push t time h =
  t.size <- t.size + 1;
  sift_up t (t.size - 1) time h

let add t ~time ~kind fn =
  if t.next_seq > max_seq then
    invalid_arg "Eventq.add: event sequence numbers exhausted";
  if fn == idle then invalid_arg "Eventq.add: Eventq.idle cannot be scheduled";
  if t.free < 0 then grow t;
  let s = t.free in
  let h = (t.next_seq lsl slot_bits) lor s in
  t.next_seq <- t.next_seq + 1;
  t.free <- t.pos.(s);
  t.kinds.(s) <- kind;
  t.fns.(s) <- fn;
  let first =
    if t.front <> none then before time h t.front_time t.front
    else t.size = 0 || before time h (get t.times 0) (get t.handles 0)
  in
  if first then begin
    if t.front <> none then push t t.front_time t.front;
    t.pos.(s) <- -1;
    t.front_time <- time;
    t.front <- h
  end
  else push t time h;
  h

(* Return slot [s] to the free list and drop its closure. *)
let release t s =
  t.pos.(s) <- t.free;
  t.fns.(s) <- idle;
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
  if h = t.front && h <> none then begin
    t.front <- none;
    release t s
  end
  else if s < Array.length t.fns then begin
    let i = t.pos.(s) in
    if i >= 0 && i < t.size && t.handles.(i) = h then begin
      remove_at t i;
      release t s
    end
  end

let is_empty t = t.front = none && t.size = 0
let live_count t = if t.front = none then t.size else t.size + 1

let top_time t =
  if t.front <> none then t.front_time
  else begin
    if t.size = 0 then invalid_arg "Eventq: the queue is empty";
    t.times.(0)
  end

let take_due t ~limit =
  if t.front <> none then
    if t.front_time > limit then idle
    else begin
      let s = t.front land slot_mask in
      t.front <- none;
      t.taken_time <- t.front_time;
      t.taken_kind <- get t.kinds s;
      let fn = Array.unsafe_get t.fns s in
      release t s;
      fn
    end
  else if t.size = 0 || get t.times 0 > limit then idle
  else begin
    let s = get t.handles 0 land slot_mask in
    t.taken_time <- get t.times 0;
    t.taken_kind <- get t.kinds s;
    let fn = Array.unsafe_get t.fns s in
    remove_at t 0;
    release t s;
    fn
  end

let taken_time t = t.taken_time
let taken_kind t = t.taken_kind
