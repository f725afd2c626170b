module K = Vkernel.Kernel
module Msg = Vkernel.Msg

type conn = { k : K.t; server : Vkernel.Pid.t }

type error =
  | Server of Protocol.rstatus
  | Ipc of K.status
  | No_server

let error_to_string = function
  | Server s -> "server: " ^ Protocol.rstatus_to_string s
  | Ipc s -> "ipc: " ^ K.status_to_string s
  | No_server -> "no file server found"

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let connect k ?(logical_id = Protocol.fileserver_logical_id) () =
  match K.get_pid k ~logical_id K.Any with
  | Some pid -> Ok { k; server = pid }
  | None -> Error No_server

let connect_to k pid =
  (* A nil pid can never serve; a local pid can be checked against the
     process table right away.  Remote pids are taken on faith — liveness
     only shows up when a request times out. *)
  if Vkernel.Pid.is_nil pid then Error No_server
  else if Vkernel.Pid.host pid = K.host k && not (K.alive k pid) then
    Error No_server
  else Ok { k; server = pid }

let server_pid c = c.server

(* Whether retrying the operation could plausibly succeed: a server may
   yet register, and a server I/O error may be transient.  Definitive
   refusals are final, and the kernel has already retried an IPC failure
   at the packet level. *)
let error_is_retryable = function
  | No_server | Server Protocol.Sio_error | Ipc K.Retryable -> true
  | Server _ | Ipc _ -> false

type handle = int

(* The stubs need a little memory of the caller's to pass names through;
   by convention they own the top of the address space. *)
let name_scratch_size = 256

(* What a request lets the server do with [count] bytes of the caller's
   space at a given offset. *)
type segment =
  | No_segment
  | Give of int  (* read them: they ride the request packet *)
  | Lend of int
      (* read them by MoveFrom only: granted but not piggybacked, as in
         the original Thoth protocol *)
  | Fill of int  (* write into them, by ReplyWithSegment or MoveTo *)

(* A successful reply.  Replies to requests bound to a file also carry
   the file's inode number, its version and any lease term granted
   (doc/PROTOCOL.md); other replies leave whatever bytes the server's
   message held there, and nothing reads them. *)
type reply = { value : int; inum : int; version : int; lease_us : int }

(* The one request path under the stubs and {!Io}.  [cb] is the lease
   callback pid stamped on the request; the stubs pass [Pid.nil], which
   writes the zeros a fresh message already holds. *)
let request c ~cb ~op ~handle ~block ~count segment =
  let msg = Msg.create () in
  Protocol.encode_request msg ~op ~handle ~block ~count;
  Protocol.set_request_callback msg cb;
  (match segment with
  | No_segment -> ()
  | Give ptr -> Msg.set_segment msg Msg.Read_only ~ptr ~len:count
  | Lend ptr ->
      Msg.set_segment msg Msg.Read_only ~ptr ~len:count;
      Msg.set_no_piggyback msg
  | Fill ptr -> Msg.set_segment msg Msg.Write_only ~ptr ~len:count);
  match K.send c.k msg c.server with
  | K.Ok -> (
      match Protocol.decode_reply_ext msg with
      | Protocol.Sok, value, inum, version ->
          Ok { value; inum; version; lease_us = Protocol.reply_lease_us msg }
      | st, _, _, _ -> Error (Server st))
  | ( K.Nonexistent | K.Bad_address | K.No_permission | K.Too_big
    | K.Retryable | K.Dead ) as st ->
      Error (Ipc st)

(* Write [name] into the name scratch area; the offset to grant. *)
let put_name c name =
  let mem = K.my_memory c.k in
  if String.length name > name_scratch_size then
    Error (Server Protocol.Sbad_request)
  else begin
    let ptr = Vkernel.Mem.size mem - name_scratch_size in
    Vkernel.Mem.write mem ~pos:ptr (Bytes.of_string name);
    Ok ptr
  end

let call c ~op ~handle ~block ~count segment =
  match request c ~cb:Vkernel.Pid.nil ~op ~handle ~block ~count segment with
  | Ok r -> Ok r.value
  | Error e -> Error e

let named c name ~op =
  match put_name c name with
  | Error e -> Error e
  | Ok ptr ->
      call c ~op ~handle:0 ~block:0 ~count:(String.length name) (Give ptr)

let open_file c name = named c name ~op:Protocol.Open
let create_file c name = named c name ~op:Protocol.Create

let delete_file c name =
  match named c name ~op:Protocol.Delete with
  | Ok _ -> Ok ()
  | Error e -> Error e

let close_file c handle =
  match call c ~op:Protocol.Close ~handle ~block:0 ~count:0 No_segment with
  | Ok _ -> Ok ()
  | Error e -> Error e

let file_size c handle =
  call c ~op:Protocol.Stat ~handle ~block:0 ~count:0 No_segment

let read_page c handle ~block ~buf ?(count = Fs.block_size) () =
  call c ~op:Protocol.Read_page ~handle ~block ~count (Fill buf)

let read_page_basic c handle ~block ~buf ?(count = Fs.block_size) () =
  call c ~op:Protocol.Read_basic ~handle ~block ~count (Fill buf)

let write_page c handle ~block ~buf ~count =
  call c ~op:Protocol.Write_page ~handle ~block ~count (Give buf)

let write_page_basic c handle ~block ~buf ~count =
  call c ~op:Protocol.Write_basic ~handle ~block ~count (Lend buf)

let load_program c handle ~buf ~max =
  call c ~op:Protocol.Load_program ~handle ~block:0 ~count:max (Fill buf)

let exec_scan c handle ~block ~count =
  call c ~op:Protocol.Exec ~handle ~block ~count No_segment

(* ------------------------------------------------------------------ *)
(* The redesigned file-access API: byte-granular reads and writes over
   an open-file record, with an optional workstation-side block cache
   between the calls and the wire protocol.  Every request it makes goes
   through [request] above, as the stubs' do; Open, Stat, Read_page and
   Write_page replies piggyback (inum, version) for consistency. *)

module Io = struct
  (* What this client knows of one inode. *)
  type inode = {
    mutable seen : int;
        (* the latest file version observed, shared by every handle on
           the file — independent per-handle copies would make one
           handle's write look like a version gap to its sibling *)
    mutable expiry : int;
        (* lease expiry (engine time): [no_lease] = none, past = lapsed,
           to be revalidated at the inode's next use *)
    mutable files : file list;
        (* the open files on it, most recently opened first — write-back
           needs a live handle to push a dirty block evicted on behalf
           of any file, not just the one being read *)
  }

  and io = {
    mutable conn : conn;
        (* mutable so session recovery can swap in a reconnection to a
           restarted server *)
    cache : Cache.t option;
    inodes : inode Vsim.Itbl.t;
    recover_on : bool;
    logical_id : int;  (* how to find the server again *)
    mutable cb_pid : Vkernel.Pid.t;
        (* the callback fiber stamped on our requests; nil = no leases,
           and a server grants none to a nil callback *)
    cached_opens : (string, handle * int) Hashtbl.t;
        (* deferred closes: name -> (server handle, inum), parked under a
           live lease so a reopen costs zero RPCs *)
    mutable breaks_seen : int;
        (* monotonic Break_lease count; a grant is installed only if no
           break arrived between request send and reply, so a callback
           overtaking its reply (reordered network) cannot resurrect the
           lease it just killed *)
  }

  and file = {
    io : io;
    mutable fh : handle;
    mutable inum : int;
    name : string;
        (* recovery re-opens by name: the handle is dead after a server
           restart, and even the inum can change if the file was
           recreated *)
    mutable closed : bool;
  }

  type t = io

  let no_lease = min_int

  let inode io inum =
    match Vsim.Itbl.find_opt io.inodes inum with
    | Some n -> n
    | None ->
        let n = { seen = 1; expiry = no_lease; files = [] } in
        Vsim.Itbl.replace io.inodes inum n;
        n

  (* Simulated time on the client's own host: lease validity must come
     from the local clock, never from a server round trip. *)
  let local_now io = Vsim.Engine.now (K.engine io.conn.k)

  (* A lease that lapses without a Break_lease means the server may have
     acknowledged conflicting writes we never heard about (most
     concretely: it restarted, and its volatile lease table — with our
     entry in it — died with the old incarnation).  Such writes raised
     the file's version, across restarts too (the version carries the
     server's epoch), so the lapsed expiry stays as a mark and the
     inode's next use asks the server for the version ([renew]). *)
  let lease_valid io ~inum = local_now io < (inode io inum).expiry

  let lease_lapsed io ~inum =
    let expiry = (inode io inum).expiry in
    expiry <> no_lease && local_now io >= expiry

  let void_lease io ~inum = (inode io inum).expiry <- no_lease

  (* Fold a reply's version into our knowledge: clean blocks tagged
     below it predate a write we never saw.  Versions strictly increase,
     across server restarts too, so the observation only rises. *)
  let observe io ~inum ~version =
    (match io.cache with
    | Some c -> Cache.revalidate c ~inum ~version
    | None -> ());
    let n = inode io inum in
    if version > n.seen then n.seen <- version

  (* The callback fiber: Receives Break_lease messages from the server,
     voids the lease and discards every clean cached block of the named
     inode, then Replies — the server withholds the conflicting write's
     acknowledgement until that Reply, which is what makes the no-stale-
     read invariant hold.  This fiber must never Send to the server (the
     server is blocked on us; a single-worker server would deadlock). *)
  let callback_body io () =
    let k = io.conn.k in
    let msg = Msg.create () in
    let rec loop () =
      let src = K.receive k msg in
      (match Protocol.decode_break_lease msg with
      | Some inum ->
          io.breaks_seen <- io.breaks_seen + 1;
          void_lease io ~inum;
          (match io.cache with
          | Some c -> Cache.revalidate c ~inum ~version:max_int
          | None -> ())
      | None -> ());
      ignore (K.reply k msg src);
      loop ()
    in
    loop ()

  let make ?cache ?(recover = false) ?(lease = false)
      ?(logical_id = Protocol.fileserver_logical_id) conn =
    let io =
      {
        conn;
        cache;
        inodes = Vsim.Itbl.create 8;
        recover_on = recover;
        logical_id;
        cb_pid = Vkernel.Pid.nil;
        cached_opens = Hashtbl.create 8;
        breaks_seen = 0;
      }
    in
    if lease then
      io.cb_pid <-
        K.spawn conn.k ~name:"lease-callback" ~mem_size:4096 (fun _ ->
            callback_body io ());
    io

  let conn io = io.conn
  let callback_pid io = io.cb_pid
  let breaks_received io = io.breaks_seen
  let file_handle f = f.fh
  let file_version f = (inode f.io f.inum).seen
  let file_lease_valid f = lease_valid f.io ~inum:f.inum

  let bs = Fs.block_size

  (* Threshold (in blocks) above which an uncached from-zero read uses
     the streamed Load_program path instead of per-page requests. *)
  let stream_threshold_blocks = 8

  (* Transient failures — [Ipc Retryable] from the kernel's reliability
     layer, or a server-side [Sio_error] — get a bounded number of fresh
     attempts.  Each retry is a new kernel exchange (new sequence number,
     fresh retransmission budget); [Dead] and permanent errors surface
     immediately.  Page reads and whole-block-image writes are idempotent,
     so a retry after an ambiguous timeout is safe. *)
  let max_op_retries = 2

  let rec retried io ~tries ~op ~handle ~block ~count segment =
    match request io.conn ~cb:io.cb_pid ~op ~handle ~block ~count segment with
    | Error e when error_is_retryable e && tries < max_op_retries ->
        retried io ~tries:(tries + 1) ~op ~handle ~block ~count segment
    | r -> r

  (* A name lookup is about whichever inode its reply names. *)
  let by_name = -1

  (* Every request {!Io} makes to the server: stamped with our callback
     pid, retried, and any lease its reply grants installed on [inum] —
     unless the reply names another inode, which means the handle now
     names another file.  The lease is anchored at [t0], the time we
     {e sent} the request — necessarily no later than the server's grant
     time, so our expiry is conservative under any clock skew — and is
     discarded if a Break_lease arrived while the request was in flight:
     the grant may already be stale. *)
  let leased io ~inum ~op ~handle ~block ~count segment =
    let t0 = local_now io and breaks0 = io.breaks_seen in
    match retried io ~tries:0 ~op ~handle ~block ~count segment with
    | Ok r as ok ->
        if
          r.lease_us > 0 && io.breaks_seen = breaks0
          && (inum = by_name || r.inum = inum)
        then (inode io r.inum).expiry <- t0 + (r.lease_us * 1_000);
        ok
    | Error _ as err -> err

  let open_named io name =
    match put_name io.conn name with
    | Error e -> Error e
    | Ok ptr ->
        leased io ~inum:by_name ~op:Protocol.Open ~handle:0 ~block:0
          ~count:(String.length name) (Give ptr)

  (* Address-space layout: names at the very top ([name_scratch_size]),
     a block-sized staging buffer just below, and everything under that
     free for the caller — the streamed path stages bulk loads at the
     bottom of the space. *)
  let block_scratch mem = Vkernel.Mem.size mem - name_scratch_size - bs
  let stream_area_limit mem = block_scratch mem

  (* A warm cache hit costs one trap plus a cross-space copy of the
     bytes actually delivered — no network, no server. *)
  let charge_local k ~bytes =
    let cm = Vhw.Cpu.model (K.cpu k) in
    Vhw.Cpu.charge (K.cpu k)
      (cm.Vhw.Cost_model.syscall_ns
      + (bytes * cm.Vhw.Cost_model.mem_copy_ns_per_byte))

  (* Our own successful write moved the file to [version].  If that is
     exactly the successor of what we knew, no other writer intervened
     and every block we hold is still current, so re-tag them all.  The
     block just written is current by definition {e whatever} other
     writers did — its content is exactly what the server acknowledged
     at [version] — so it is re-tagged even across a version gap
     (leaving it behind would make a read-after-write refetch its own
     data). *)
  let note_write_reply f ~block ~version =
    let n = inode f.io f.inum in
    (match f.io.cache with
    | Some c ->
        if version = n.seen + 1 then Cache.retag_file c ~inum:f.inum ~version;
        Cache.retag_block c ~inum:f.inum ~block ~version
    | None -> ());
    if version > n.seen then n.seen <- version

  (* Release a server handle we no longer want, best-effort: if the
     server is gone so is the handle. *)
  let drop_handle io h = ignore (close_file io.conn h)

  (* Revalidate [f] after its lease lapsed: one Stat on its handle,
     whose extended reply carries the file's version and a fresh lease.
     The version vouches for every clean block tagged at or above it.
     The lapsed mark goes with the reply, so a lapse costs at most one
     Stat even when no lease comes back.  A reply for another inode
     means the handle now names another file (the server restarted and
     reissued it): that counts as refused, and the mark stays. *)
  let renew f =
    let io = f.io in
    let n = inode io f.inum in
    let lapsed_at = n.expiry in
    match
      leased io ~inum:f.inum ~op:Protocol.Stat ~handle:f.fh ~block:0 ~count:0
        No_segment
    with
    | Error e -> Error e
    | Ok r when r.inum <> f.inum -> Error (Server Protocol.Sbad_handle)
    | Ok r ->
        (* Still the lapsed expiry: neither a grant nor a break since. *)
        if n.expiry = lapsed_at then n.expiry <- no_lease;
        observe io ~inum:r.inum ~version:r.version;
        Ok ()

  let bind f =
    let n = inode f.io f.inum in
    n.files <- f :: n.files;
    Ok f

  (* Drop exactly [f] from its inode's open files, keeping any other
     still-open handles on it (legal double-open). *)
  let forget_file f =
    let n = inode f.io f.inum in
    n.files <- List.filter (fun g -> g != f) n.files

  (* A real open, whose reply version drives {!Cache.revalidate}: it
     exposes remote writes since we last had the file. *)
  let open_fresh io name =
    match open_named io name with
    | Error e -> Error e
    | Ok r ->
        observe io ~inum:r.inum ~version:r.version;
        bind { io; fh = r.value; inum = r.inum; name; closed = false }

  let open_file io name =
    match Hashtbl.find_opt io.cached_opens name with
    | None -> open_fresh io name
    | Some (h, inum) -> (
        (* A deferred [close] parked the server handle. *)
        Hashtbl.remove io.cached_opens name;
        let f = { io; fh = h; inum; name; closed = false } in
        if lease_valid io ~inum then begin
          (* Zero-RPC reopen: the lease certifies that no conflicting
             write has been acknowledged since — the cached blocks and
             observed version are valid as they stand. *)
          charge_local io.conn.k ~bytes:0;
          bind f
        end
        else if lease_lapsed io ~inum then
          match renew f with
          | Ok () -> bind f
          | Error (Server Protocol.Sbad_handle) -> open_fresh io name
          | Error _ ->
              drop_handle io h;
              open_fresh io name
        else begin
          (* The lease was broken while parked. *)
          drop_handle io h;
          open_fresh io name
        end)

  (* Write one whole-block image for [f] at [block] and fold the reply's
     version into our knowledge. *)
  let push_content_raw f ~block content =
    let io = f.io in
    let mem = K.my_memory io.conn.k in
    let ptr = block_scratch mem in
    Vkernel.Mem.write mem ~pos:ptr content;
    match
      leased io ~inum:f.inum ~op:Protocol.Write_page ~handle:f.fh ~block
        ~count:(Bytes.length content) (Give ptr)
    with
    | Ok r ->
        note_write_reply f ~block ~version:r.version;
        Ok ()
    | Error e -> Error e

  (* ---- session recovery (opt-in via [make ~recover:true]) ----------

     After a server-host crash + restart everything volatile on the
     server side is gone: our handle, the per-inode versions, even the
     GetPid binding (the restarted kernel re-registers under a fresh
     pid).  Recovery re-resolves the server by logical id, re-opens the
     file by name, and re-pushes any not-yet-acknowledged dirty blocks;
     the operation that tripped over the crash is then retried.  Only
     idempotent operations flow through here — page reads, whole-block
     image writes, stat — so replaying one that may or may not have
     executed before the crash is safe. *)

  let session_error = function
    | Ipc (K.Dead | K.Nonexistent | K.Retryable) ->
        (* failure detector fired, a restarted host NACKed our stale
           server pid, or retransmissions ran dry *)
        true
    | Server Protocol.Sbad_handle ->
        (* a restarted server begins with an empty handle table, and a
           deletion kills every handle on the file *)
        true
    | No_server -> true
    | Server _ | Ipc _ -> false

  let max_recoveries = 8

  (* Re-resolve the server pid.  The cached GetPid binding points at the
     dead incarnation; drop it so the lookup goes back on the wire and
     finds the restarted server's registration.  Everything leased is
     void too: the restarted server's lease table is empty, so holding
     on to a lease (or a parked handle) from the old incarnation could
     serve stale data the new server would never have allowed. *)
  let recover_session io =
    let k = io.conn.k in
    K.forget_pid k ~logical_id:io.logical_id;
    Vsim.Itbl.iter (fun _ n -> n.expiry <- no_lease) io.inodes;
    Hashtbl.reset io.cached_opens;
    match connect k ~logical_id:io.logical_id () with
    | Ok c ->
        io.conn <- c;
        true
    | Error _ -> false

  (* Re-open [f] by name against the re-found server.  Dirty cached
     blocks were never acknowledged, so they must survive the crash —
     and they stay dirty in the cache until each re-push is individually
     acknowledged, so a second failure mid-re-push loses nothing: the
     next recovery round collects the still-dirty remainder, and if the
     budget runs out the error surfaces to the caller with the blocks
     still held.  Clean blocks are dropped up front, so a lost session
     starts its file cold, though the reply's version alone would now
     vouch for them (versions carry the server's epoch). *)
  let reopen f =
    let io = f.io in
    void_lease io ~inum:f.inum;
    let dirty =
      match io.cache with
      | Some cch -> Cache.dirty_blocks cch ~inum:f.inum
      | None -> []
    in
    (match io.cache with
    | Some cch -> Cache.revalidate cch ~inum:f.inum ~version:max_int
    | None -> ());
    match open_named io f.name with
    | Error e -> Error e
    | Ok { value = h; inum; version; _ } ->
        f.fh <- h;
        let old_inum = f.inum in
        if inum <> f.inum then begin
          (* The file was deleted and recreated while we were away;
             follow the name, not the inode. *)
          forget_file f;
          f.inum <- inum;
          ignore (bind f)
        end;
        observe io ~inum ~version;
        let rec repush = function
          | [] -> Ok ()
          | (block, data) :: rest -> (
              match push_content_raw f ~block data with
              | Ok () ->
                  (match io.cache with
                  | Some cch when old_inum = inum ->
                      Cache.mark_clean cch ~inum ~block;
                      Cache.note_writeback cch ~inum ~block
                  | _ -> ());
                  repush rest
              | Error e -> Error e)
        in
        let r = repush dirty in
        (* A recreated file changed identity: the surviving images are
           keyed under the dead inum.  Once every one is safely pushed
           into the new file, drop them; on failure they stay put so the
           loss is visible, and the error names the session. *)
        (match (r, io.cache) with
        | Ok (), Some cch when old_inum <> inum ->
            Cache.drop_file cch ~inum:old_inum
        | _ -> ());
        r

  let rec with_recovery ?(tries = 0) f op =
    match op () with
    | Error e
      when f.io.recover_on && session_error e && tries < max_recoveries ->
        (* Give the host time to restart and re-register before probing
           again; a fixed pause keeps runs deterministic. *)
        Vsim.Proc.sleep (Vsim.Time.ms 10);
        if recover_session f.io then ignore (reopen f);
        with_recovery ~tries:(tries + 1) f op
    | r -> r

  let push_content f ~block content =
    with_recovery f (fun () -> push_content_raw f ~block content)

  (* Push a dirty block the cache gave back (eviction or flush) to the
     server, on behalf of whichever open file owns it. *)
  let push_block io ~inum ~block data =
    match List.find_opt (fun f -> not f.closed) (inode io inum).files with
    | None -> Error (Server Protocol.Sbad_handle)
    | Some owner -> push_content owner ~block data

  let rec push_all io = function
    | [] -> Ok ()
    | (inum, block, data) :: rest -> (
        match push_block io ~inum ~block data with
        | Ok () -> push_all io rest
        | Error e -> Error e)

  (* Remote block fetch via Read_page; inserts the block (clean) into
     the cache, writing back any dirty victims that fall out.  Read
     replies also refresh the lease. *)
  let fetch_block_raw f ~block =
    let mem = K.my_memory f.io.conn.k in
    let ptr = block_scratch mem in
    match
      leased f.io ~inum:f.inum ~op:Protocol.Read_page ~handle:f.fh ~block
        ~count:bs (Fill ptr)
    with
    | Error e -> Error e
    | Ok r ->
        let n = inode f.io f.inum in
        if r.version > n.seen then n.seen <- r.version;
        let data = Vkernel.Mem.read mem ~pos:ptr ~len:r.value in
        (match f.io.cache with
        | None -> Ok data
        | Some cch -> (
            let evicted =
              Cache.insert cch ~inum:f.inum ~block ~version:n.seen ~dirty:false
                data
            in
            match push_all f.io evicted with
            | Ok () -> Ok data
            | Error e -> Error e))

  let fetch_block f ~block =
    with_recovery f (fun () -> fetch_block_raw f ~block)

  (* The block through the cache: a hit costs local trap-plus-copy for
     the [want] bytes the caller will consume; a miss goes remote.  A
     lapsed lease is renewed first, so the cache serves only what the
     file's current version vouches for.  The renewal goes through
     session recovery, and a reopen there renews the lease itself. *)
  let get_block f ~block ~want =
    match f.io.cache with
    | None -> fetch_block f ~block
    | Some cch -> (
        let renewed =
          if lease_lapsed f.io ~inum:f.inum then
            with_recovery f (fun () ->
                if lease_lapsed f.io ~inum:f.inum then renew f else Ok ())
          else Ok ()
        in
        match renewed with
        | Error e -> Error e
        | Ok () -> (
            match
              Cache.find cch ~inum:f.inum ~block ~version:(file_version f)
            with
            | Some data ->
                charge_local f.io.conn.k ~bytes:want;
                Ok data
            | None -> fetch_block f ~block))

  let read f ~off ~len =
    if f.closed then Error (Server Protocol.Sbad_handle)
    else if off < 0 || len < 0 then Error (Server Protocol.Sbad_request)
    else if len = 0 then Ok Bytes.empty
    else begin
      let mem = K.my_memory f.io.conn.k in
      let streamed =
        Option.is_none f.io.cache && off = 0
        && len >= stream_threshold_blocks * bs
        && len <= stream_area_limit mem
      in
      if streamed then begin
        (* Bulk from-zero read with no cache: the server streams the
           file with MoveTo (the program-loading path) — fewer, larger
           exchanges than per-page requests. *)
        match load_program f.io.conn f.fh ~buf:0 ~max:len with
        | Error e -> Error e
        | Ok n -> Ok (Vkernel.Mem.read mem ~pos:0 ~len:(Int.min n len))
      end
      else begin
        let out = Bytes.create len in
        let rec go got =
          if got >= len then Ok len
          else begin
            let abs = off + got in
            let block = abs / bs and boff = abs mod bs in
            let want = Int.min (bs - boff) (len - got) in
            match get_block f ~block ~want with
            | Error e -> Error e
            | Ok data ->
                let m = Int.min want (Int.max (Bytes.length data - boff) 0) in
                if m > 0 then Bytes.blit data boff out got m;
                if m < want then Ok (got + m) (* short block: EOF *)
                else go (got + m)
          end
        in
        match go 0 with
        | Error e -> Error e
        | Ok n -> Ok (if n = len then out else Bytes.sub out 0 n)
      end
    end

  (* One block's worth of a write: build the new whole-block image
     (read-merge for partial overwrites), then dispatch on policy. *)
  let write_block f ~block ~boff chunk =
    let m = Bytes.length chunk in
    let content =
      if boff = 0 && m = bs then Ok chunk
      else
        match get_block f ~block ~want:m with
        | Error e -> Error e
        | Ok base ->
            (* Holes and beyond-EOF reads come back short; pad with
               zeros, as the file system itself would. *)
            let newlen = Int.max (boff + m) (Bytes.length base) in
            let buf = Bytes.make newlen '\000' in
            Bytes.blit base 0 buf 0 (Bytes.length base);
            Bytes.blit chunk 0 buf boff m;
            Ok buf
    in
    match content with
    | Error e -> Error e
    | Ok content -> (
        match f.io.cache with
        | Some cch when (Cache.config cch).Cache.policy = Cache.Write_back ->
            (* Dirty the cached copy; the server sees it on eviction,
               flush or close. *)
            charge_local f.io.conn.k ~bytes:m;
            let evicted =
              Cache.insert cch ~inum:f.inum ~block
                ~version:(file_version f) ~dirty:true content
            in
            push_all f.io evicted
        | Some cch -> (
            (* Write-through: server first (which advances the version),
               then keep a clean copy. *)
            match push_content f ~block content with
            | Error e -> Error e
            | Ok () ->
                let evicted =
                  Cache.insert cch ~inum:f.inum ~block
                    ~version:(file_version f) ~dirty:false content
                in
                push_all f.io evicted)
        | None -> push_content f ~block content)

  let write f ~off data =
    if f.closed then Error (Server Protocol.Sbad_handle)
    else if off < 0 then Error (Server Protocol.Sbad_request)
    else begin
      let total = Bytes.length data in
      let rec go written =
        if written >= total then Ok total
        else begin
          let abs = off + written in
          let block = abs / bs and boff = abs mod bs in
          let m = Int.min (bs - boff) (total - written) in
          match write_block f ~block ~boff (Bytes.sub data written m) with
          | Error e -> Error e
          | Ok () -> go (written + m)
        end
      in
      go 0
    end

  let flush f =
    if f.closed then Error (Server Protocol.Sbad_handle)
    else
      match f.io.cache with
      | None -> Ok ()
      | Some cch ->
          (* Clear each dirty bit only once its push succeeded: an
             aborted flush leaves the remaining blocks dirty so a retry
             (or eviction) still writes them back. *)
          let rec go = function
            | [] -> Ok ()
            | (block, data) :: rest -> (
                match push_content f ~block data with
                | Ok () ->
                    Cache.mark_clean cch ~inum:f.inum ~block;
                    Cache.note_writeback cch ~inum:f.inum ~block;
                    go rest
                | Error e -> Error e)
          in
          go (Cache.dirty_blocks cch ~inum:f.inum)

  let close f =
    if f.closed then Ok ()
    else
      match flush f with
      | Error e -> Error e
      | Ok () ->
          f.closed <- true;
          forget_file f;
          if
            lease_valid f.io ~inum:f.inum
            && not (Hashtbl.mem f.io.cached_opens f.name)
          then begin
            (* Deferred close: everything is flushed and the lease still
               stands, so park the server handle instead of releasing
               it — the matching reopen then needs zero RPCs.  If the
               lease breaks while parked, the next open releases the
               handle and demotes to a real Open. *)
            Hashtbl.replace f.io.cached_opens f.name (f.fh, f.inum);
            Ok ()
          end
          else
            (match close_file f.io.conn f.fh with
            | Error e when f.io.recover_on && session_error e ->
                (* The server that held the handle is gone — there is
                   nothing left to close; a restarted server starts with
                   an empty handle table. *)
                Ok ()
            | r -> r)
end

let read_sequential c handle ~buf ~on_page =
  match file_size c handle with
  | Error e -> Error e
  | Ok size ->
      let nblocks = (size + Fs.block_size - 1) / Fs.block_size in
      let rec go block total =
        if block >= nblocks then Ok total
        else
          match read_page c handle ~block ~buf () with
          | Error e -> Error e
          | Ok n ->
              on_page block n;
              go (block + 1) (total + n)
      in
      go 0 0

(* ------------------------------------------------------------------ *)
(* Sharded access: one Io per shard, routed by the shard map           *)

module Sharded = struct
  type t = {
    kernel : Vkernel.Kernel.t;
    names : Names.t;
    mk_cache : unit -> Cache.t option;
    recover : bool;
    lease : bool;
    ios : Io.t Vsim.Itbl.t;
  }

  let make ?(mk_cache = fun () -> None) ?(recover = false) ?(lease = false)
      kernel names =
    { kernel; names; mk_cache; recover; lease; ios = Vsim.Itbl.create 8 }

  (* Connections are made lazily, one per shard logical id, so a client
     never pays GetPid for shards it does not touch.  Each shard gets
     its own cache: inode numbers are per-shard namespaces, so sharing
     one cache across shards would alias unrelated blocks. *)
  let io_for t name =
    let lid = Names.shard_of t.names name in
    match Vsim.Itbl.find_opt t.ios lid with
    | Some io -> Ok io
    | None -> (
        match connect t.kernel ~logical_id:lid () with
        | Error e -> Error e
        | Ok conn ->
            let io =
              Io.make
                ?cache:(t.mk_cache ())
                ~recover:t.recover ~lease:t.lease ~logical_id:lid conn
            in
            Vsim.Itbl.replace t.ios lid io;
            Ok io)

  let open_file t name =
    match io_for t name with
    | Error e -> Error e
    | Ok io -> Io.open_file io name
end
