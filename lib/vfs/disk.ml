type latency =
  | Fixed of Vsim.Time.t
  | Seek of {
      base_ns : int;
      full_seek_ns : int;
      rotation_ns : int;
      cylinders : int;
    }

type pending = { p_cost : int; p_action : unit -> unit }

let k_complete = Vsim.Eventq.Kind.intern "disk.complete"

(* The block table is two-level: [chunks] holds one slot per
   [chunk_blocks] blocks, [no_chunk] until a block in it is first written.
   Within a chunk, unwritten blocks point at an all-zero block.  So
   creating a disk costs O(blocks / chunk_blocks) pointers and a disk pays
   only for the chunks and blocks it writes.

   Blocks are immutable: a completed write stores the private copy
   [write_k] took at submission, and reads hand out copies.  So a chunk
   array can be shared with snapshots and with other disks; [owned.(i)]
   says whether chunk [i] is this disk's alone, and a write to a shared
   chunk copies its pointer array first. *)
let chunk_bits = 8
let chunk_blocks = 1 lsl chunk_bits
let no_chunk : Bytes.t array = [||]

type t = {
  eng : Vsim.Engine.t;
  dhost : int;
  nblocks : int;
  chunks : Bytes.t array array;
  owned : bool array;
  zero : Bytes.t;
  bsize : int;
  mutable lat : latency;
  mutable head_cyl : int;
  mutable free_at : Vsim.Time.t;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable busy : int;
  queue : pending Queue.t;
  mutable in_service : bool;
  mutable n_waits : int;
  mutable wait_ns : int;
  mutable max_depth : int;
  rng : Vsim.Rng.t;
}

let create eng ?(host = 0) ?(latency = Fixed (Vsim.Time.ms 20)) ~blocks
    ~block_size () =
  if blocks <= 0 || block_size <= 0 then
    invalid_arg "Disk.create: blocks and block_size must be positive";
  let nchunks = (blocks + chunk_blocks - 1) lsr chunk_bits in
  {
    eng;
    dhost = host;
    nblocks = blocks;
    chunks = Array.make nchunks no_chunk;
    owned = Array.make nchunks false;
    zero = Bytes.make block_size '\000';
    bsize = block_size;
    lat = latency;
    head_cyl = 0;
    free_at = 0;
    n_reads = 0;
    n_writes = 0;
    busy = 0;
    queue = Queue.create ();
    in_service = false;
    n_waits = 0;
    wait_ns = 0;
    max_depth = 0;
    rng = Vsim.Rng.split (Vsim.Engine.rng eng);
  }

let engine t = t.eng
let block_size t = t.bsize
let blocks t = t.nblocks
let latency t = t.lat
let set_latency t lat = t.lat <- lat
let reads t = t.n_reads
let writes t = t.n_writes
let busy_ns t = t.busy
let queue_depth t = Queue.length t.queue
let max_queue_depth t = t.max_depth
let queue_waits t = t.n_waits
let queue_wait_ns t = t.wait_ns

let check_block t b =
  if b < 0 || b >= t.nblocks then
    Fmt.invalid_arg "Disk: block %d out of range (%d blocks)" b t.nblocks

let block t b =
  let c = t.chunks.(b lsr chunk_bits) in
  if c == no_chunk then t.zero else c.(b land (chunk_blocks - 1))

(* Store [data] as block [b], taking chunk ownership first. *)
let set_block t b data =
  let i = b lsr chunk_bits in
  if not t.owned.(i) then begin
    let c = t.chunks.(i) in
    t.chunks.(i) <-
      (if c == no_chunk then Array.make chunk_blocks t.zero else Array.copy c);
    t.owned.(i) <- true
  end;
  t.chunks.(i).(b land (chunk_blocks - 1)) <- data

let access_time t b =
  match t.lat with
  | Fixed ns -> ns
  | Seek { base_ns; full_seek_ns; rotation_ns; cylinders } ->
      let blocks_per_cyl = Int.max 1 (t.nblocks / cylinders) in
      let cyl = b / blocks_per_cyl in
      let travel = abs (cyl - t.head_cyl) in
      t.head_cyl <- cyl;
      let seek = full_seek_ns * travel / Int.max 1 cylinders in
      let rot = Vsim.Rng.int t.rng (Int.max 1 rotation_ns) in
      base_ns + seek + rot

(* The device is an FCFS queued resource: one access in service at a
   time, arrivals while busy wait in [queue].  Service instants are
   identical to the old implementation's [free_at] reservation scheme
   (start = max now free_at, finish = start + cost), but waiting
   requests are now held explicitly so depth and wait time are
   observable.  [access_time] is evaluated at submit time — the head
   position and rotation draw follow request-arrival order, matching
   the previous behavior exactly. *)
let rec begin_service t cost action =
  t.in_service <- true;
  let finish = Vsim.Engine.now t.eng + cost in
  ignore
    (Vsim.Engine.at_kind t.eng ~kind:k_complete finish (fun () ->
         action ();
         (* [action] may resume a fiber that immediately submits another
            request; it is queued behind us and picked up here. *)
         match Queue.take_opt t.queue with
         | Some p -> begin_service t p.p_cost p.p_action
         | None -> t.in_service <- false))

let schedule t ~rw b k =
  let cost = access_time t b in
  let now = Vsim.Engine.now t.eng in
  let start = Int.max now t.free_at in
  t.free_at <- start + cost;
  t.busy <- t.busy + cost;
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Disk_io { host = t.dhost; rw; block = b; ns = cost });
  if t.in_service then begin
    Queue.push { p_cost = cost; p_action = k } t.queue;
    let wait = start - now in
    (* [wait = 0] happens when a request is submitted from within the
       previous completion (a fiber resumed at the finish instant reads
       its next block); that is back-to-back service, not contention, so
       it is not counted and emits no event — traces of non-overlapping
       workloads stay byte-identical. *)
    if wait > 0 then begin
      let depth = Queue.length t.queue in
      if depth > t.max_depth then t.max_depth <- depth;
      t.n_waits <- t.n_waits + 1;
      t.wait_ns <- t.wait_ns + wait;
      if Vsim.Trace.tracing t.eng then
        Vsim.Trace.event t.eng
          (Vsim.Event.Disk_queue { host = t.dhost; depth; wait_ns = wait })
    end
  end
  else begin_service t cost k

let read_k t b k =
  check_block t b;
  t.n_reads <- t.n_reads + 1;
  schedule t ~rw:"read" b (fun () -> k (Bytes.copy (block t b)))

(* [data] itself becomes block [b] when the write completes. *)
let write_shared_k t b data k =
  check_block t b;
  if Bytes.length data <> t.bsize then
    Fmt.invalid_arg "Disk.write: expected %d-byte block, got %d" t.bsize
      (Bytes.length data);
  t.n_writes <- t.n_writes + 1;
  schedule t ~rw:"write" b (fun () ->
      set_block t b data;
      k ())

let write_k t b data k = write_shared_k t b (Bytes.copy data) k

(* A snapshot is the media plus the access counters (not queue or
   timing state).  It shares the disk's chunk arrays, so taking one
   gives every chunk up: the disk's next write to a chunk copies it. *)
type snapshot = {
  s_blocks : int;
  s_bsize : int;
  s_chunks : Bytes.t array array;
  s_reads : int;
  s_writes : int;
}

let disown t = Array.fill t.owned 0 (Array.length t.owned) false

let snapshot t =
  disown t;
  { s_blocks = t.nblocks; s_bsize = t.bsize; s_chunks = Array.copy t.chunks;
    s_reads = t.n_reads; s_writes = t.n_writes }

(* Install [img]'s media, after checking it has this disk's geometry. *)
let install fn t img =
  if img.s_blocks <> t.nblocks || img.s_bsize <> t.bsize then
    Fmt.invalid_arg "Disk.%s: image of %d %d-byte blocks on a disk of %d \
                     %d-byte blocks" fn img.s_blocks img.s_bsize t.nblocks
      t.bsize;
  Array.blit img.s_chunks 0 t.chunks 0 (Array.length t.chunks);
  disown t

let restore t img = install "restore" t img

let seed t img =
  install "seed" t img;
  t.n_reads <- img.s_reads;
  t.n_writes <- img.s_writes

let peek t b =
  check_block t b;
  Bytes.copy (block t b)

let read t b =
  Vsim.Proc.suspend (fun resume -> read_k t b resume)

let write t b data =
  Vsim.Proc.suspend (fun resume ->
      write_k t b data resume)

let write_shared t b data =
  Vsim.Proc.suspend (fun resume ->
      write_shared_k t b data resume)
