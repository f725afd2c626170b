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

type event = {
  time : Time.t;
  seq : int;
  kind : kind;
  born : Time.t;
  mutable fn : unit -> unit;
      (* set to [ignore] on cancel, so a cancelled event still sitting in
         the heap does not keep its closure's captures alive *)
  mutable cancelled : bool;
  mutable gone : bool;
      (* no longer in any heap: fired, compacted away, or the dummy.
         Lets [cancel] keep the owning queue's cancelled-pending count
         exact even when called after the event fired. *)
  cc : int ref;  (* owning queue's cancelled-pending counter *)
}

type t = {
  mutable heap : event array;
  mutable size : int;
  mutable next_seq : int;
  cc : int ref;  (* cancelled events still sitting in the heap *)
  mutable compactions : int;
}

let dummy =
  { time = 0; seq = -1; kind = Kind.other; born = 0; fn = ignore;
    cancelled = true; gone = true; cc = ref 0 }

let create () =
  { heap = Array.make 64 dummy; size = 0; next_seq = 0; cc = ref 0;
    compactions = 0 }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t =
  let heap = Array.make (2 * Array.length t.heap) dummy in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

(* Drop every cancelled event and rebuild the heap in place (Floyd
   heapify).  Pop order is unaffected: ordering is the total (time, seq)
   key, not the array layout.  Called from [add] when cancelled entries
   outnumber live ones, so a workload that cancels most of what it
   schedules (retransmit timers) stays O(live) instead of O(scheduled). *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let ev = t.heap.(i) in
    if ev.cancelled then ev.gone <- true
    else begin
      t.heap.(!j) <- ev;
      incr j
    end
  done;
  for i = !j to t.size - 1 do
    t.heap.(i) <- dummy
  done;
  t.size <- !j;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done;
  t.cc := 0;
  t.compactions <- t.compactions + 1

let add t ~time ?(kind = Kind.other) ?born fn =
  if !(t.cc) > 64 && 2 * !(t.cc) > t.size then compact t;
  let born = match born with Some b -> b | None -> time in
  let ev =
    { time; seq = t.next_seq; kind; born; fn; cancelled = false;
      gone = false; cc = t.cc }
  in
  t.next_seq <- t.next_seq + 1;
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- ev;
  t.size <- t.size + 1;
  sift_up t (t.size - 1);
  ev

let cancel ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    ev.fn <- ignore;
    if not ev.gone then incr ev.cc
  end

let cancelled ev = ev.cancelled
let cancelled_pending t = !(t.cc)
let compactions t = t.compactions

let remove_top t =
  let ev = t.heap.(0) in
  ev.gone <- true;
  if ev.cancelled then decr t.cc;
  t.size <- t.size - 1;
  t.heap.(0) <- t.heap.(t.size);
  t.heap.(t.size) <- dummy;
  if t.size > 0 then sift_down t 0

(* Drop cancelled events from the top so [next_time]/[pop] see live ones. *)
let rec skim t =
  if t.size > 0 && t.heap.(0).cancelled then begin
    remove_top t;
    skim t
  end

let next_time t =
  skim t;
  if t.size = 0 then None else Some t.heap.(0).time

let pop t =
  skim t;
  if t.size = 0 then None
  else begin
    let ev = t.heap.(0) in
    remove_top t;
    Some (ev.time, ev.fn)
  end

(* Like [pop], but keeps the scheduling metadata the profiler needs. *)
let pop_ev t =
  skim t;
  if t.size = 0 then None
  else begin
    let ev = t.heap.(0) in
    remove_top t;
    Some ev
  end

let ev_time ev = ev.time
let ev_kind ev = ev.kind
let ev_born ev = ev.born
let ev_fn ev = ev.fn

let is_empty t =
  skim t;
  t.size = 0

let live_count t = t.size - !(t.cc)
