(* Workstation-side block cache: LRU over (inum, block), version-tagged
   for the open-close consistency model.  See cache.mli for the design
   notes.

   Determinism: victim selection scans every entry for the minimum
   touch tick.  Ticks are assigned from a per-cache monotonic counter,
   so the minimum is unique and the scan result is independent of
   hash-table iteration order.  Per-file walks that emit events sort
   by block first. *)

type policy = Write_through | Write_back

type config = { capacity_blocks : int; policy : policy }

let policy_to_string = function
  | Write_through -> "write-through"
  | Write_back -> "write-back"

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;
  invalidations : int;
}

type entry = {
  data : Bytes.t;
  mutable version : int;
  mutable dirty : bool;
  mutable tick : int;
}

type t = {
  eng : Vsim.Engine.t;
  host : int;
  cfg : config;
  files : entry Vsim.Itbl.t Vsim.Itbl.t;
      (* inum -> block -> entry, so per-file calls touch one file's
         blocks; a file's table stays once made, possibly empty *)
  mutable resident : int;
  mutable next_tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;
  mutable invalidations : int;
}

let create eng ~host cfg =
  {
    eng;
    host;
    cfg;
    files = Vsim.Itbl.create 8;
    resident = 0;
    next_tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    writebacks = 0;
    invalidations = 0;
  }

let config t = t.cfg

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
    writebacks = t.writebacks;
    invalidations = t.invalidations;
  }


let emit t op ~inum ~block =
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Cache_op { host = t.host; op; inum; block })

let touch t e =
  e.tick <- t.next_tick;
  t.next_tick <- t.next_tick + 1

let blocks_of t inum = Vsim.Itbl.find_opt t.files inum

let lookup t ~inum ~block =
  match blocks_of t inum with
  | Some blocks -> Vsim.Itbl.find_opt blocks block
  | None -> None

let remove t ~inum ~block =
  match blocks_of t inum with
  | Some blocks when Vsim.Itbl.mem blocks block ->
      Vsim.Itbl.remove blocks block;
      t.resident <- t.resident - 1
  | Some _ | None -> ()

let invalidate t ~inum ~block =
  remove t ~inum ~block;
  t.invalidations <- t.invalidations + 1;
  emit t "invalidate" ~inum ~block

let find t ~inum ~block ~version =
  match lookup t ~inum ~block with
  | Some e when e.dirty || e.version >= version ->
      (* A dirty block holds local modifications and wins until flushed,
         whatever the server-side version says. *)
      t.hits <- t.hits + 1;
      emit t "hit" ~inum ~block;
      touch t e;
      Some e.data
  | Some _ ->
      (* Clean but stale: a remote writer moved the file on. *)
      invalidate t ~inum ~block;
      t.misses <- t.misses + 1;
      emit t "miss" ~inum ~block;
      None
  | None ->
      t.misses <- t.misses + 1;
      emit t "miss" ~inum ~block;
      None

(* Evict the least-recently-used entry, the one with the smallest tick;
   return it if it was dirty. *)
let evict_one t =
  let inum = ref (-1) and block = ref (-1) and best = ref None in
  Vsim.Itbl.iter
    (fun i blocks ->
      Vsim.Itbl.iter
        (fun b e ->
          match !best with
          | Some lru when lru.tick <= e.tick -> ()
          | _ ->
              inum := i;
              block := b;
              best := Some e)
        blocks)
    t.files;
  match !best with
  | None -> None
  | Some e ->
      let inum = !inum and block = !block in
      remove t ~inum ~block;
      t.evictions <- t.evictions + 1;
      emit t "evict" ~inum ~block;
      if e.dirty then begin
        t.writebacks <- t.writebacks + 1;
        emit t "writeback" ~inum ~block;
        Some (inum, block, e.data)
      end
      else None

let insert t ~inum ~block ~version ~dirty data =
  if t.cfg.capacity_blocks <= 0 then []
  else begin
    let blocks =
      match blocks_of t inum with
      | Some blocks -> blocks
      | None ->
          let blocks = Vsim.Itbl.create 8 in
          Vsim.Itbl.replace t.files inum blocks;
          blocks
    in
    if not (Vsim.Itbl.mem blocks block) then t.resident <- t.resident + 1;
    let e = { data; version; dirty; tick = 0 } in
    touch t e;
    Vsim.Itbl.replace blocks block e;
    let rec shrink acc =
      if t.resident <= t.cfg.capacity_blocks then List.rev acc
      else
        match evict_one t with
        | Some victim -> shrink (victim :: acc)
        | None -> shrink acc
    in
    shrink []
  end

let retag_file t ~inum ~version =
  (* Only blocks tagged with the version the caller observed just before
     its write are known-current; older tags mean unknown validity (a
     remote writer may have changed those blocks after we cached them),
     so they keep their tags and fall to lazy invalidation. *)
  match blocks_of t inum with
  | None -> ()
  | Some blocks ->
      Vsim.Itbl.iter
        (fun _ e -> if e.version = version - 1 then e.version <- version)
        blocks

let retag_block t ~inum ~block ~version =
  match lookup t ~inum ~block with
  | Some e -> if e.version < version then e.version <- version
  | None -> ()

let dirty_blocks t ~inum =
  match blocks_of t inum with
  | None -> []
  | Some blocks ->
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Vsim.Itbl.fold
           (fun b e acc -> if e.dirty then (b, e.data) :: acc else acc)
           blocks [])

let mark_clean t ~inum ~block =
  match lookup t ~inum ~block with
  | None -> ()
  | Some e -> e.dirty <- false

let note_writeback t ~inum ~block =
  t.writebacks <- t.writebacks + 1;
  emit t "writeback" ~inum ~block

let revalidate t ~inum ~version =
  match blocks_of t inum with
  | None -> ()
  | Some blocks ->
      let stale =
        Vsim.Itbl.fold
          (fun b e acc ->
            if (not e.dirty) && e.version < version then b :: acc else acc)
          blocks []
      in
      List.iter
        (fun block -> invalidate t ~inum ~block)
        (List.sort Int.compare stale)

let drop_file t ~inum =
  match blocks_of t inum with
  | None -> ()
  | Some blocks ->
      t.resident <- t.resident - Vsim.Itbl.length blocks;
      Vsim.Itbl.remove t.files inum
