(* Workstation-side block cache: LRU over (inum, block), version-tagged
   for the open-close consistency model.  See cache.mli for the design
   notes.

   Determinism: victim selection scans the table for the minimum touch
   tick.  Ticks are assigned from a per-cache monotonic counter, so the
   minimum is unique and the scan result is independent of hash-table
   iteration order. *)

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
  tbl : ((int * int), entry) Hashtbl.t;
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
    tbl = Hashtbl.create (max 16 cfg.capacity_blocks);
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

let resident t = Hashtbl.length t.tbl

let emit t op ~inum ~block =
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Cache_op { host = t.host; op; inum; block })

let touch t e =
  e.tick <- t.next_tick;
  t.next_tick <- t.next_tick + 1

let invalidate t key =
  Hashtbl.remove t.tbl key;
  t.invalidations <- t.invalidations + 1;
  let inum, block = key in
  emit t "invalidate" ~inum ~block

let find t ~inum ~block ~version =
  match Hashtbl.find_opt t.tbl (inum, block) with
  | Some e when e.dirty || e.version >= version ->
      (* A dirty block holds local modifications and wins until flushed,
         whatever the server-side version says. *)
      t.hits <- t.hits + 1;
      emit t "hit" ~inum ~block;
      touch t e;
      Some e.data
  | Some _ ->
      (* Clean but stale: a remote writer moved the file on. *)
      invalidate t (inum, block);
      t.misses <- t.misses + 1;
      emit t "miss" ~inum ~block;
      None
  | None ->
      t.misses <- t.misses + 1;
      emit t "miss" ~inum ~block;
      None

(* Evict the least-recently-used entry; return it if it was dirty. *)
let evict_one t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, best) when best.tick <= e.tick -> acc
        | _ -> Some (key, e))
      t.tbl None
  in
  match victim with
  | None -> None
  | Some (((inum, block) as key), e) ->
      Hashtbl.remove t.tbl key;
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
    (match Hashtbl.find_opt t.tbl (inum, block) with
    | Some _ -> Hashtbl.remove t.tbl (inum, block)
    | None -> ());
    let e = { data; version; dirty; tick = 0 } in
    touch t e;
    Hashtbl.replace t.tbl (inum, block) e;
    let rec shrink acc =
      if Hashtbl.length t.tbl <= t.cfg.capacity_blocks then List.rev acc
      else
        match evict_one t with
        | Some victim -> shrink (victim :: acc)
        | None -> shrink acc
    in
    shrink []
  end

let update t ~inum ~block ~off src ~dirty =
  match Hashtbl.find_opt t.tbl (inum, block) with
  | None -> ()
  | Some e ->
      Bytes.blit src 0 e.data off (Bytes.length src);
      if dirty then e.dirty <- true;
      touch t e

let retag_file t ~inum ~version =
  (* Only blocks tagged with the version the caller observed just before
     its write are known-current; older tags mean unknown validity (a
     remote writer may have changed those blocks after we cached them),
     so they keep their tags and fall to lazy invalidation. *)
  Hashtbl.iter
    (fun (i, _) e ->
      if i = inum && e.version = version - 1 then e.version <- version)
    t.tbl

let retag_block t ~inum ~block ~version =
  match Hashtbl.find_opt t.tbl (inum, block) with
  | Some e -> if e.version < version then e.version <- version
  | None -> ()

let dirty_blocks t ~inum =
  let dirty =
    Hashtbl.fold
      (fun (i, block) e acc ->
        if i = inum && e.dirty then (block, e.data) :: acc else acc)
      t.tbl []
  in
  List.sort (fun (a, _) (b, _) -> compare a b) dirty

let mark_clean t ~inum ~block =
  match Hashtbl.find_opt t.tbl (inum, block) with
  | None -> ()
  | Some e -> e.dirty <- false

let note_writeback t ~inum ~block =
  t.writebacks <- t.writebacks + 1;
  emit t "writeback" ~inum ~block

let revalidate t ~inum ~version =
  let stale =
    Hashtbl.fold
      (fun ((i, _) as key) e acc ->
        if i = inum && (not e.dirty) && e.version < version then key :: acc
        else acc)
      t.tbl []
  in
  List.iter (invalidate t) (List.sort compare stale)

let drop_file t ~inum =
  let keys =
    Hashtbl.fold
      (fun ((i, _) as key) _ acc -> if i = inum then key :: acc else acc)
      t.tbl []
  in
  List.iter (Hashtbl.remove t.tbl) (List.sort compare keys)
