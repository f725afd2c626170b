type error =
  | No_space
  | No_inodes
  | Not_found
  | Already_exists
  | Name_too_long
  | Too_big
  | Bad_argument
  | Not_formatted

let error_to_string = function
  | No_space -> "no space"
  | No_inodes -> "no inodes"
  | Not_found -> "not found"
  | Already_exists -> "already exists"
  | Name_too_long -> "name too long"
  | Too_big -> "too big"
  | Bad_argument -> "bad argument"
  | Not_formatted -> "not formatted"

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let block_size = 512
let magic = 0x56465331 (* "VFS1" *)
let n_direct = 12
let ptrs_per_block = block_size / 4
let max_blocks_per_file = n_direct + ptrs_per_block
let max_file_size = max_blocks_per_file * block_size
let inode_size = 64
let inodes_per_block = block_size / inode_size
let dirent_size = 32
let max_name = dirent_size - 4
let root_inum = 0

type geometry = {
  nblocks : int;
  ninodes : int;
  bitmap_start : int;
  bitmap_blocks : int;
  inode_start : int;
  inode_blocks : int;
  data_start : int;
  journal_start : int;  (** 0 when the filesystem has no journal *)
  journal_blocks : int;
}

(* An open transaction: block writes are buffered here instead of going
   to cache and disk, and reads see the buffer, so an aborted operation
   leaves no trace and a committed one reaches the disk only through the
   journal's commit protocol. *)
type txn = {
  tbuf : Bytes.t Vsim.Itbl.t;
  tmeta : bool Vsim.Itbl.t;  (** cache policy of the last write *)
  mutable torder : int list;  (** reverse order of first write per block *)
}

type t = {
  dsk : Disk.t;
  geo : geometry;
  cache : Bytes.t Vsim.Itbl.t;  (** never walked: its order is no output *)
  mutable cache_on : bool;
  mutable hits : int;
  mutable misses : int;
  mutable jseq : int;  (** last committed journal sequence number *)
  mutable epoch : int;  (** incarnation count, kept in the journal's head *)
  mutable txn : txn option;
  mutable lock_busy : bool;
  lock_waiters : (unit -> unit) Queue.t;
}

let disk t = t.dsk

(* ---------------- geometry ---------------- *)

let compute_geometry ~nblocks ~ninodes =
  let bitmap_blocks = (nblocks + (block_size * 8) - 1) / (block_size * 8) in
  let inode_blocks = (ninodes + inodes_per_block - 1) / inodes_per_block in
  let bitmap_start = 1 in
  let inode_start = bitmap_start + bitmap_blocks in
  let data_start = inode_start + inode_blocks in
  { nblocks; ninodes; bitmap_start; bitmap_blocks; inode_start; inode_blocks;
    data_start; journal_start = 0; journal_blocks = 0 }

let set32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF

(* ---------------- block cache ---------------- *)

(* Metadata blocks (superblock, bitmap, inode table, indirect tables) are
   always cached: any real file server keeps them in memory, and the
   experiments that disable the cache mean *data* caching — Table 6-2's
   one-disk-access-per-page condition.

   [view] returns the block itself — the open transaction's buffer, the
   cache entry, or on a miss the disk's copy, which becomes the entry —
   so its caller must only read it.  That is safe because none of these
   is ever changed in place: every write stores a fresh copy in its
   place.  A caller that changes the block takes a copy with
   [read_block]. *)
let view ?(meta = false) t b =
  match
    match t.txn with Some tx -> Vsim.Itbl.find_opt tx.tbuf b | None -> None
  with
  | Some data ->
      t.hits <- t.hits + 1;
      data
  | None -> (
      let cached = meta || t.cache_on in
      match if cached then Vsim.Itbl.find_opt t.cache b else None with
      | Some data ->
          t.hits <- t.hits + 1;
          data
      | None ->
          t.misses <- t.misses + 1;
          let data = Disk.read t.dsk b in
          if cached then Vsim.Itbl.replace t.cache b data;
          data)

let read_block ?meta t b = Bytes.copy (view ?meta t b)

(* Write-through: the cache is updated and the disk written.  Under an
   open transaction the write is buffered instead; it reaches cache and
   disk only when the transaction commits. *)
let write_block ?(meta = false) t b data =
  match t.txn with
  | Some tx ->
      if not (Vsim.Itbl.mem tx.tbuf b) then tx.torder <- b :: tx.torder;
      Vsim.Itbl.replace tx.tbuf b (Bytes.copy data);
      Vsim.Itbl.replace tx.tmeta b meta
  | None ->
      (* One copy serves as both the cache entry and the disk block:
         neither is ever changed in place. *)
      let data = Bytes.copy data in
      if meta || t.cache_on then Vsim.Itbl.replace t.cache b data;
      Disk.write_shared t.dsk b data

let set_cache_enabled t on =
  t.cache_on <- on;
  if not on then Vsim.Itbl.reset t.cache

let evict_cache t = Vsim.Itbl.reset t.cache
let cache_hits t = t.hits
let cache_misses t = t.misses

(* ---------------- write-ahead journal ---------------- *)

(* One transaction occupies the journal region from its start:

     [descriptor] [image]*  ...repeated...  [commit]

   A descriptor block lists up to [jtags_per_desc] target block numbers
   and is followed by that many after-image blocks; a transaction larger
   than one descriptor's worth emits several descriptor groups.  The
   commit block repeats the sequence number and the total image count.
   Replay applies a transaction only when its commit block is present
   and consistent — anything else (torn descriptor chain, missing
   commit, stale sequence) is discarded, which is exactly the
   crash-before-commit case.  Applying is idempotent: every record is a
   whole-block after-image, so replaying twice equals replaying once.
   The journal is retired after checkpoint by zeroing its first block.

   The journal's first block also holds the file system's epoch at byte
   16, in a descriptor and in a retired block alike.  A recovery sets
   the epoch to one more than the block's, and every commit's
   descriptor and retire write and every replay rewrite that block
   anyway, so keeping the epoch there costs no disk operation.  A
   recovery that commits nothing before the next crash leaves the old
   value on disk, so the next recovery hands out the same epoch again;
   that is harmless, since nothing was acknowledged in between. *)

let jmagic = 0x564A4C31 (* "VJL1" *)
let j_desc = 1
let j_commit = 2
let epoch_off = 16
let jtags_off = 20
let jtags_per_desc = (block_size - jtags_off) / 4

let epoch t = t.epoch

(* A retired journal head: no transaction, only the epoch. *)
let retired t =
  let b = Bytes.make block_size '\000' in
  set32 b epoch_off t.epoch;
  b

let journaled t = t.geo.journal_blocks > 0

(* Mutating operations on a journaled filesystem are serialized by a
   fiber lock: a transaction must not interleave with another operation's
   writes, and readers must not observe a half-checkpointed commit.  On
   an unjournaled filesystem the lock is a no-op and every code path is
   unchanged. *)
let k_lock = Vsim.Eventq.Kind.intern "fs.lock"

let lock t =
  if journaled t then begin
    if t.lock_busy then
      Vsim.Proc.suspend (fun resume ->
          Queue.add resume t.lock_waiters)
    else t.lock_busy <- true
  end

let unlock t =
  if journaled t then
    match Queue.take_opt t.lock_waiters with
    | Some k ->
        (* Hand the lock over, but resume from an event, not from inside
           the releasing fiber. *)
        ignore (Vsim.Engine.after_kind (Disk.engine t.dsk) ~kind:k_lock 0 k)
    | None -> t.lock_busy <- false

let with_lock t f =
  lock t;
  Fun.protect ~finally:(fun () -> unlock t) f

let begin_txn t =
  t.txn <-
    Some
      { tbuf = Vsim.Itbl.create 32; tmeta = Vsim.Itbl.create 16; torder = [] }

let abort_txn t = t.txn <- None

let commit_txn t =
  match t.txn with
  | None -> Ok ()
  | Some tx ->
      t.txn <- None;
      let blocks = List.rev tx.torder in
      let n = List.length blocks in
      if n = 0 then Ok ()
      else begin
        let ndesc = (n + jtags_per_desc - 1) / jtags_per_desc in
        if n + ndesc + 1 > t.geo.journal_blocks then Error No_space
        else begin
          t.jseq <- t.jseq + 1;
          let seq = t.jseq in
          let pos = ref t.geo.journal_start in
          let put data =
            Disk.write t.dsk !pos data;
            incr pos
          in
          let rec emit = function
            | [] -> ()
            | rest ->
                let k = Int.min jtags_per_desc (List.length rest) in
                let hdr = Bytes.make block_size '\000' in
                set32 hdr 0 jmagic;
                set32 hdr 4 seq;
                set32 hdr 8 j_desc;
                set32 hdr 12 k;
                set32 hdr epoch_off t.epoch;
                let rec fill i = function
                  | b :: tl when i < k ->
                      set32 hdr (jtags_off + (4 * i)) b;
                      fill (i + 1) tl
                  | tl -> tl
                in
                let tail = fill 0 rest in
                put hdr;
                List.iteri
                  (fun i b -> if i < k then put (Vsim.Itbl.find tx.tbuf b))
                  rest;
                emit tail
          in
          emit blocks;
          let cmt = Bytes.make block_size '\000' in
          set32 cmt 0 jmagic;
          set32 cmt 4 seq;
          set32 cmt 8 j_commit;
          set32 cmt 12 n;
          put cmt;
          (* Checkpoint: apply in place (through the cache), then retire
             the journal. *)
          List.iter
            (fun b ->
              let meta =
                match Vsim.Itbl.find_opt tx.tmeta b with
                | Some m -> m
                | None -> false
              in
              write_block ~meta t b (Vsim.Itbl.find tx.tbuf b))
            blocks;
          Disk.write t.dsk t.geo.journal_start (retired t);
          Ok ()
        end
      end

(* A transaction per public mutating operation: buffer, then commit.
   Unjournaled filesystems write through directly, unchanged. *)
let with_txn t f =
  if not (journaled t) then f ()
  else begin
    begin_txn t;
    match f () with
    | Ok _ as ok -> ( match commit_txn t with Ok () -> ok | Error e -> Error e)
    | Error _ as e ->
        abort_txn t;
        e
  end

(* Replay straight against the disk: the caller guarantees the block
   cache is empty (fresh mount or just-reset after a crash).  The epoch
   becomes the head block's plus [bump]. *)
let journal_replay t ~bump =
  if journaled t then begin
    let jend = t.geo.journal_start + t.geo.journal_blocks in
    let hdr0 = Disk.read t.dsk t.geo.journal_start in
    t.epoch <- get32 hdr0 epoch_off + bump;
    if get32 hdr0 0 = jmagic then begin
      let seq = get32 hdr0 4 in
      let rec scan pos acc =
        if pos >= jend then None
        else begin
          let hdr = Disk.read t.dsk pos in
          if get32 hdr 0 <> jmagic || get32 hdr 4 <> seq then None
          else if get32 hdr 8 = j_commit then
            if get32 hdr 12 = List.length acc then Some (List.rev acc)
            else None
          else if get32 hdr 8 = j_desc then begin
            let k = get32 hdr 12 in
            if k <= 0 || k > jtags_per_desc || pos + 1 + k >= jend then None
            else begin
              let acc = ref acc in
              for i = 0 to k - 1 do
                let b = get32 hdr (jtags_off + (4 * i)) in
                let img = Disk.read t.dsk (pos + 1 + i) in
                acc := (b, img) :: !acc
              done;
              scan (pos + 1 + k) !acc
            end
          end
          else None
        end
      in
      (match scan t.geo.journal_start [] with
      | Some writes ->
          t.jseq <- Int.max t.jseq seq;
          List.iter
            (fun (b, img) ->
              if b >= 0 && b < t.geo.journal_start then Disk.write t.dsk b img)
            writes
      | None -> ());
      Disk.write t.dsk t.geo.journal_start (retired t)
    end
  end

(* After a host crash killed every fiber mid-operation: volatile state
   (cache, open transaction, lock) is gone with the host; the journal
   decides what the disk means, and the file system enters a new
   epoch. *)
let recover t =
  Vsim.Itbl.reset t.cache;
  t.txn <- None;
  t.lock_busy <- false;
  Queue.clear t.lock_waiters;
  journal_replay t ~bump:1

(* ---------------- bitmap ---------------- *)

let alloc_block t =
  let geo = t.geo in
  let rec scan_block bi =
    if bi >= geo.bitmap_blocks then Error No_space
    else begin
      let bytes = read_block ~meta:true t (geo.bitmap_start + bi) in
      let rec scan_byte i =
        if i >= block_size then scan_block (bi + 1)
        else begin
          let v = Char.code (Bytes.get bytes i) in
          if v = 0xFF then scan_byte (i + 1)
          else begin
            let bit = ref 0 in
            while v land (1 lsl !bit) <> 0 do
              incr bit
            done;
            let blk = (((bi * block_size) + i) * 8) + !bit in
            if blk >= geo.nblocks then Error No_space
            else begin
              Bytes.set bytes i (Char.chr (v lor (1 lsl !bit)));
              write_block ~meta:true t (geo.bitmap_start + bi) bytes;
              (* Fresh blocks must read back as zeros. *)
              write_block t blk (Bytes.make block_size '\000');
              Ok blk
            end
          end
        end
      in
      scan_byte 0
    end
  in
  scan_block 0

let free_block t blk =
  let geo = t.geo in
  let idx = blk / 8 in
  let bi = idx / block_size and off = idx mod block_size in
  let bytes = read_block ~meta:true t (geo.bitmap_start + bi) in
  let v = Char.code (Bytes.get bytes off) in
  Bytes.set bytes off (Char.chr (v land lnot (1 lsl (blk mod 8))));
  write_block ~meta:true t (geo.bitmap_start + bi) bytes

let mark_used t blk =
  let geo = t.geo in
  let idx = blk / 8 in
  let bi = idx / block_size and off = idx mod block_size in
  let bytes = read_block ~meta:true t (geo.bitmap_start + bi) in
  let v = Char.code (Bytes.get bytes off) in
  Bytes.set bytes off (Char.chr (v lor (1 lsl (blk mod 8))));
  write_block ~meta:true t (geo.bitmap_start + bi) bytes

(* ---------------- inodes ---------------- *)

type inode = {
  mutable i_used : bool;
  mutable i_size : int;
  i_direct : int array;  (** 0 = unallocated *)
  mutable i_indirect : int;
}

let inode_block t inum = t.geo.inode_start + (inum / inodes_per_block)
let inode_offset inum = inum mod inodes_per_block * inode_size

let read_inode t inum =
  if inum < 0 || inum >= t.geo.ninodes then Error Bad_argument
  else begin
    let bytes = view ~meta:true t (inode_block t inum) in
    let off = inode_offset inum in
    let ino =
      {
        i_used = Bytes.get bytes off <> '\000';
        i_size = get32 bytes (off + 4);
        i_direct = Array.init n_direct (fun i -> get32 bytes (off + 8 + (4 * i)));
        i_indirect = get32 bytes (off + 8 + (4 * n_direct));
      }
    in
    Ok ino
  end

let write_inode t inum (ino : inode) =
  let blk = inode_block t inum and off = inode_offset inum in
  let bytes = read_block ~meta:true t blk in
  Bytes.set bytes off (if ino.i_used then '\001' else '\000');
  set32 bytes (off + 4) ino.i_size;
  Array.iteri (fun i v -> set32 bytes (off + 8 + (4 * i)) v) ino.i_direct;
  set32 bytes (off + 8 + (4 * n_direct)) ino.i_indirect;
  write_block ~meta:true t blk bytes

let alloc_inode t =
  let rec scan inum =
    if inum >= t.geo.ninodes then Error No_inodes
    else
      match read_inode t inum with
      | Error e -> Error e
      | Ok ino ->
          if ino.i_used then scan (inum + 1)
          else begin
            ino.i_used <- true;
            ino.i_size <- 0;
            Array.fill ino.i_direct 0 n_direct 0;
            ino.i_indirect <- 0;
            write_inode t inum ino;
            Ok inum
          end
  in
  scan 1 (* inode 0 is the root directory *)

(* Map a file block index to a disk block; optionally allocating.
   [on_alloc] observes every block newly allocated on this call (data,
   and the indirect table itself), so the caller can unwind them if a
   later step of the same operation fails. *)
let bmap t (ino : inode) ~inum ~idx ~alloc ?(on_alloc = ignore) () =
  if idx < 0 || idx >= max_blocks_per_file then Error Too_big
  else if idx < n_direct then begin
    if ino.i_direct.(idx) <> 0 then Ok (Some ino.i_direct.(idx))
    else if not alloc then Ok None
    else
      match alloc_block t with
      | Error e -> Error e
      | Ok blk ->
          on_alloc blk;
          ino.i_direct.(idx) <- blk;
          write_inode t inum ino;
          Ok (Some blk)
  end
  else begin
    let slot = idx - n_direct in
    let with_indirect iblk =
      let table = view ~meta:true t iblk in
      let ptr = get32 table (4 * slot) in
      if ptr <> 0 then Ok (Some ptr)
      else if not alloc then Ok None
      else
        match alloc_block t with
        | Error e -> Error e
        | Ok blk ->
            on_alloc blk;
            let table = Bytes.copy table in
            set32 table (4 * slot) blk;
            write_block ~meta:true t iblk table;
            Ok (Some blk)
    in
    if ino.i_indirect <> 0 then with_indirect ino.i_indirect
    else if not alloc then Ok None
    else
      match alloc_block t with
      | Error e -> Error e
      | Ok iblk ->
          on_alloc iblk;
          ino.i_indirect <- iblk;
          write_inode t inum ino;
          with_indirect iblk
  end

(* ---------------- byte-level read/write ---------------- *)

(* Read-only stand-in for the blocks of a hole. *)
let hole = Bytes.make block_size '\000'

(* Walks [pos, pos+len) clipped to the file: [start] gets the clipped
   length and returns the destination, then [piece dst off data data_off n]
   copies each block's share in order, [off] counted from [pos]. *)
let iter_range t ~inum ~pos ~len start piece =
  if pos < 0 || len < 0 then Error Bad_argument
  else
    match read_inode t inum with
    | Error e -> Error e
    | Ok ino when not ino.i_used -> Error Not_found
    | Ok ino ->
        let len = Int.max 0 (Int.min len (ino.i_size - pos)) in
        let dst = start len in
        let rec go off =
          if off >= len then Ok dst
          else begin
            let abs = pos + off in
            let idx = abs / block_size and boff = abs mod block_size in
            let n = Int.min (block_size - boff) (len - off) in
            match bmap t ino ~inum ~idx ~alloc:false () with
            | Error e -> Error e
            | Ok blk ->
                let data = match blk with Some b -> view t b | None -> hole in
                piece dst off data boff n;
                go (off + n)
          end
        in
        go 0

let read_range t ~inum ~pos ~len =
  iter_range t ~inum ~pos ~len Bytes.create (fun out off data boff n ->
      Bytes.blit data boff out off n)

let write_range t ~inum ~pos data =
  let len = Bytes.length data in
  if pos < 0 then Error Bad_argument
  else if pos + len > max_file_size then Error Too_big
  else
    match read_inode t inum with
    | Error e -> Error e
    | Ok ino when not ino.i_used -> Error Not_found
    | Ok ino ->
        (* Snapshot the pointer state so a failure partway through (e.g.
           [No_space] after some blocks were already allocated) can put
           everything back instead of leaking bitmap bits. *)
        let orig =
          {
            i_used = ino.i_used;
            i_size = ino.i_size;
            i_direct = Array.copy ino.i_direct;
            i_indirect = ino.i_indirect;
          }
        in
        let fresh = ref [] in
        let on_alloc blk = fresh := blk :: !fresh in
        let unwind () =
          if !fresh <> [] then begin
            List.iter (free_block t) !fresh;
            if orig.i_indirect <> 0 then begin
              (* The table itself predates this call; only scrub the
                 entries that point at blocks we just freed. *)
              let table = read_block ~meta:true t orig.i_indirect in
              for i = 0 to ptrs_per_block - 1 do
                let ptr = get32 table (4 * i) in
                if List.exists (Int.equal ptr) !fresh then
                  set32 table (4 * i) 0
              done;
              write_block ~meta:true t orig.i_indirect table
            end;
            write_inode t inum orig
          end
        in
        let rec go off =
          if off >= len then begin
            if pos + len > ino.i_size then begin
              ino.i_size <- pos + len;
              write_inode t inum ino
            end;
            Ok ()
          end
          else begin
            let abs = pos + off in
            let idx = abs / block_size and boff = abs mod block_size in
            let n = Int.min (block_size - boff) (len - off) in
            match bmap t ino ~inum ~idx ~alloc:true ~on_alloc () with
            | Error e ->
                unwind ();
                Error e
            | Ok None ->
                unwind ();
                Error No_space
            | Ok (Some blk) ->
                let cur =
                  if n = block_size then Bytes.make block_size '\000'
                  else read_block t blk
                in
                Bytes.blit data off cur boff n;
                write_block t blk cur;
                go (off + n)
          end
        in
        go 0

(* ---------------- directory ---------------- *)

let dirent_count (root : inode) = root.i_size / dirent_size

let read_dirent t i =
  match read_range t ~inum:root_inum ~pos:(i * dirent_size) ~len:dirent_size with
  | Error _ -> None
  | Ok bytes ->
      if Bytes.length bytes < dirent_size then None
      else begin
        let inum = get32 bytes 0 in
        let name = Bytes.sub_string bytes 4 max_name in
        let name =
          match String.index_opt name '\000' with
          | Some i -> String.sub name 0 i
          | None -> name
        in
        Some (name, inum)
      end

let write_dirent t i ~name ~inum =
  let bytes = Bytes.make dirent_size '\000' in
  set32 bytes 0 inum;
  Bytes.blit_string name 0 bytes 4 (String.length name);
  write_range t ~inum:root_inum ~pos:(i * dirent_size) bytes

let find_entry t name =
  match read_inode t root_inum with
  | Error _ -> None
  | Ok root ->
      let n = dirent_count root in
      let rec go i =
        if i >= n then None
        else
          match read_dirent t i with
          | Some (n', inum) when n' = name -> Some (i, inum)
          | Some _ | None -> go (i + 1)
      in
      go 0

(* ---------------- public API ---------------- *)

let make_t dsk geo =
  {
    dsk;
    geo;
    cache = Vsim.Itbl.create 16;
    cache_on = true;
    hits = 0;
    misses = 0;
    jseq = 0;
    epoch = 0;
    txn = None;
    lock_busy = false;
    lock_waiters = Queue.create ();
  }

let format dsk ?(journal_blocks = 0) ~ninodes () =
  if Disk.block_size dsk <> block_size then
    invalid_arg "Fs.format: disk block size must be 512";
  if journal_blocks < 0 then invalid_arg "Fs.format: negative journal size";
  let geo = compute_geometry ~nblocks:(Disk.blocks dsk) ~ninodes in
  (* The journal lives at the tail of the disk, outside the data area. *)
  let geo =
    if journal_blocks = 0 then geo
    else begin
      let journal_start = geo.nblocks - journal_blocks in
      if journal_start <= geo.data_start then
        invalid_arg "Fs.format: journal leaves no data space";
      { geo with journal_start; journal_blocks }
    end
  in
  let t = make_t dsk geo in
  (* Superblock. *)
  let sb = Bytes.make block_size '\000' in
  set32 sb 0 magic;
  set32 sb 4 geo.nblocks;
  set32 sb 8 geo.ninodes;
  set32 sb 12 geo.bitmap_start;
  set32 sb 16 geo.bitmap_blocks;
  set32 sb 20 geo.inode_start;
  set32 sb 24 geo.inode_blocks;
  set32 sb 28 geo.data_start;
  set32 sb 32 geo.journal_start;
  set32 sb 36 geo.journal_blocks;
  write_block ~meta:true t 0 sb;
  (* Zero the bitmap and inode table, then mark metadata blocks used. *)
  let zero = Bytes.make block_size '\000' in
  for b = geo.bitmap_start to geo.data_start - 1 do
    write_block t b zero
  done;
  for b = 0 to geo.data_start - 1 do
    mark_used t b
  done;
  (* The journal region is reserved in the bitmap so the allocator never
     hands its blocks out; an empty head block marks it retired. *)
  if geo.journal_blocks > 0 then begin
    for b = geo.journal_start to geo.nblocks - 1 do
      mark_used t b
    done;
    Disk.write t.dsk geo.journal_start zero
  end;
  (* Root directory: inode 0, empty. *)
  let root =
    { i_used = true; i_size = 0; i_direct = Array.make n_direct 0;
      i_indirect = 0 }
  in
  write_inode t root_inum root

let mount dsk =
  if Disk.block_size dsk <> block_size then Error Bad_argument
  else begin
    let t0 = make_t dsk (compute_geometry ~nblocks:(Disk.blocks dsk) ~ninodes:1) in
    let sb = view ~meta:true t0 0 in
    if get32 sb 0 <> magic then Error Not_formatted
    else begin
      let geo =
        {
          nblocks = get32 sb 4;
          ninodes = get32 sb 8;
          bitmap_start = get32 sb 12;
          bitmap_blocks = get32 sb 16;
          inode_start = get32 sb 20;
          inode_blocks = get32 sb 24;
          data_start = get32 sb 28;
          (* 0/0 on images formatted before the journal existed. *)
          journal_start = get32 sb 32;
          journal_blocks = get32 sb 36;
        }
      in
      let t = { t0 with geo } in
      journal_replay t ~bump:0;
      Ok t
    end
  end

(* The cache can be shared entry by entry: no entry is ever changed in
   place (see [view]). *)
let clone t dsk =
  if Option.is_some t.txn || t.lock_busy then
    invalid_arg "Fs.clone: filesystem is in the middle of an operation";
  if Disk.block_size dsk <> block_size || Disk.blocks dsk <> Disk.blocks t.dsk
  then invalid_arg "Fs.clone: disk geometry differs";
  { t with dsk; cache = Vsim.Itbl.copy t.cache; lock_waiters = Queue.create () }

let create_op t name =
  if String.length name = 0 then Error Bad_argument
  else if String.length name > max_name then Error Name_too_long
  else if find_entry t name <> None then Error Already_exists
  else
    match alloc_inode t with
    | Error e -> Error e
    | Ok inum -> (
        (* Reuse a deleted slot if there is one. *)
        match read_inode t root_inum with
        | Error e -> Error e
        | Ok root ->
            let n = dirent_count root in
            let rec find_free i =
              if i >= n then n
              else
                match read_dirent t i with
                | Some ("", _) -> i
                | Some _ | None -> find_free (i + 1)
            in
            let slot = find_free 0 in
            (match write_dirent t slot ~name ~inum with
            | Error e ->
                (* No dirent references the new inode: free it rather
                   than leak a table slot. *)
                (match read_inode t inum with
                | Ok ino ->
                    ino.i_used <- false;
                    ino.i_size <- 0;
                    write_inode t inum ino
                | Error _ -> ());
                Error e
            | Ok () -> Ok inum))

let lookup t name =
  match find_entry t name with Some (_, inum) -> Some inum | None -> None

let free_file_blocks t (ino : inode) =
  Array.iter (fun blk -> if blk <> 0 then free_block t blk) ino.i_direct;
  if ino.i_indirect <> 0 then begin
    let table = view ~meta:true t ino.i_indirect in
    for i = 0 to ptrs_per_block - 1 do
      let ptr = get32 table (4 * i) in
      if ptr <> 0 then free_block t ptr
    done;
    free_block t ino.i_indirect
  end

let unlink_op t name =
  match find_entry t name with
  | None -> Error Not_found
  | Some (slot, inum) -> (
      match read_inode t inum with
      | Error e -> Error e
      | Ok ino ->
          if ino.i_used then begin
            free_file_blocks t ino;
            ino.i_used <- false;
            ino.i_size <- 0;
            write_inode t inum ino
          end;
          write_dirent t slot ~name:"" ~inum:0)

let size t ~inum =
  match read_inode t inum with
  | Error e -> Error e
  | Ok ino when not ino.i_used -> Error Not_found
  | Ok ino -> Ok ino.i_size

(* Public mutating operations: on a journaled filesystem each runs as
   one serialized transaction (all-or-nothing on disk); otherwise these
   are exactly the bare operations.  Reads take the lock too so they
   never observe a half-checkpointed commit. *)
let create t name = with_lock t (fun () -> with_txn t (fun () -> create_op t name))
let unlink t name = with_lock t (fun () -> with_txn t (fun () -> unlink_op t name))

let read t ~inum ~pos ~len =
  with_lock t (fun () -> read_range t ~inum ~pos ~len)

let read_into t ~inum ~pos ~len mem ~at =
  with_lock t (fun () ->
      iter_range t ~inum ~pos ~len Fun.id (fun _ off data boff n ->
          Vkernel.Mem.blit_in mem ~pos:(at + off) data ~src_off:boff ~len:n))

let write t ~inum ~pos data =
  with_lock t (fun () -> with_txn t (fun () -> write_range t ~inum ~pos data))

let list t =
  match read_inode t root_inum with
  | Error _ -> []
  | Ok root ->
      let n = dirent_count root in
      let rec go i acc =
        if i >= n then List.rev acc
        else
          match read_dirent t i with
          | Some ("", _) | None -> go (i + 1) acc
          | Some (name, inum) -> go (i + 1) ((name, inum) :: acc)
      in
      go 0 []

(* ---------------- consistency check (fsck) ---------------- *)

let check t =
  with_lock t (fun () ->
      let geo = t.geo in
      let issues = ref [] in
      let problem fmt = Printf.ksprintf (fun s -> issues := s :: !issues) fmt in
      (* The bitmap as read, viewed first (a cold cache reads it from disk
         before the inode table).  Blocks past its end read as free. *)
      let bitmap =
        Array.init geo.bitmap_blocks (fun bi ->
            view ~meta:true t (geo.bitmap_start + bi))
      in
      (* The system owns the metadata area and the journal; inodes own
         the blocks they claim. *)
      let reserved b =
        b < geo.data_start || (geo.journal_blocks > 0 && b >= geo.journal_start)
      in
      let owner = Vsim.Itbl.create 64 in
      let claim inum what blk =
        if blk < 0 || blk >= geo.nblocks then
          problem "inode %d: %s points outside the disk (block %d)" inum what
            blk
        else if reserved blk then
          problem "inode %d: %s claims reserved block %d" inum what blk
        else
          match Vsim.Itbl.find_opt owner blk with
          | Some first ->
              problem "block %d claimed by both inode %d and inode %d" blk
                first inum
          | None -> Vsim.Itbl.replace owner blk inum
      in
      (* Each inode block is viewed once, for all of its inodes. *)
      for ib = 0 to ((geo.ninodes + inodes_per_block - 1) / inodes_per_block) - 1
      do
        let bytes = view ~meta:true t (geo.inode_start + ib) in
        let first = ib * inodes_per_block in
        for inum = first to Int.min geo.ninodes (first + inodes_per_block) - 1 do
          let off = inode_offset inum in
          if Bytes.get bytes off <> '\000' then begin
            let size = get32 bytes (off + 4) in
            if size > max_file_size then
              problem "inode %d: impossible size %d" inum size;
            for i = 0 to n_direct - 1 do
              let blk = get32 bytes (off + 8 + (4 * i)) in
              if blk <> 0 then claim inum "direct pointer" blk
            done;
            let iblk = get32 bytes (off + 8 + (4 * n_direct)) in
            if iblk <> 0 then begin
              claim inum "indirect table" iblk;
              if iblk < geo.nblocks then begin
                let table = view ~meta:true t iblk in
                for i = 0 to ptrs_per_block - 1 do
                  let ptr = get32 table (4 * i) in
                  if ptr <> 0 then claim inum "indirect pointer" ptr
                done
              end
            end
          end
        done
      done;
      (* Bitmap vs ownership: the bitmap ownership implies, built a block
         at a time, against the one read; only the bytes of differing
         blocks are examined bit by bit. *)
      let bits_per_block = block_size * 8 in
      let nbb = (geo.nblocks + bits_per_block - 1) / bits_per_block in
      let implied = Array.init nbb (fun _ -> Bytes.make block_size '\000') in
      let mark b =
        let blk = implied.(b / bits_per_block) and i = b / 8 mod block_size in
        Bytes.set blk i
          (Char.chr (Char.code (Bytes.get blk i) lor (1 lsl (b mod 8))))
      in
      for b = 0 to Int.min geo.data_start geo.nblocks - 1 do
        mark b
      done;
      if geo.journal_blocks > 0 then
        for b = geo.journal_start to geo.nblocks - 1 do
          mark b
        done;
      Vsim.Itbl.iter (fun b _ -> mark b) owner;
      Array.iteri
        (fun bi want ->
          let got = if bi < Array.length bitmap then bitmap.(bi) else hole in
          if not (Bytes.equal want got) then
            for i = 0 to block_size - 1 do
              let diff =
                Char.code (Bytes.get want i) lxor Char.code (Bytes.get got i)
              in
              if diff <> 0 then
                for bit = 0 to 7 do
                  let b = (((bi * block_size) + i) * 8) + bit in
                  if diff land (1 lsl bit) <> 0 && b < geo.nblocks then
                    if reserved b then
                      problem "reserved block %d marked free in the bitmap" b
                    else
                      match Vsim.Itbl.find_opt owner b with
                      | Some inum ->
                          problem "block %d in use by inode %d but marked free"
                            b inum
                      | None ->
                          problem
                            "block %d marked used but referenced by no inode \
                             (leak)"
                            b
                done
            done)
        implied;
      (* Directory entries must point at live inodes. *)
      List.iter
        (fun (name, inum) ->
          if inum < 0 || inum >= geo.ninodes then
            problem "dirent %S points outside the inode table (%d)" name inum
          else
            let ib = view ~meta:true t (inode_block t inum) in
            if Bytes.get ib (inode_offset inum) = '\000' then
              problem "dirent %S points to free inode %d" name inum)
        (list t);
      List.rev !issues)
