module K = Vkernel.Kernel
module Msg = Vkernel.Msg

type config = {
  transfer_unit : int;
  read_ahead : bool;
  fs_process_ns : int;
  max_open : int;
  workers : int;
  register_id : int option;
  lease_term_ns : int;
}

let default_config =
  {
    transfer_unit = 4096;
    read_ahead = false;
    fs_process_ns = 0;
    max_open = 32;
    workers = 1;
    register_id = Some Protocol.fileserver_logical_id;
    lease_term_ns = Vsim.Time.ms 200;
  }

let exec_compute_ns_per_page = Vsim.Time.us 500

type open_file = {
  of_inum : int;
  of_owner : Vkernel.Pid.t;
  of_stamp : int;  (* open order, for oldest-first reclaim *)
  mutable of_last_block : int;
}

(* One client's lease on one inode.  [l_pid] is the callback fiber the
   client stamped on its request; [l_host] lets the failure detector
   veto callbacks to suspected hosts. *)
type holder = {
  l_pid : Vkernel.Pid.t;
  l_host : int;
  mutable l_expiry : int;
}

type t = {
  kernel : K.t;
  fs : Fs.t;
  cfg : config;
  mutable spid : Vkernel.Pid.t;
  mutable worker_pids : Vkernel.Pid.t list;
  handles : open_file option array;
  mutable last_handle : int;  (* the slot handed out last *)
  versions : int Vsim.Itbl.t;
      (* per-inode version counter, bumped on every accepted mutation;
         with the file system's epoch it makes the version piggybacked
         on extended replies for client-cache consistency *)
  leases : holder list Vsim.Itbl.t;
      (* per-inode lease holders, insertion-ordered so callback order is
         deterministic; volatile, dropped wholesale across a crash *)
  mutable open_seq : int;
  mutable grace_until : int;
  mutable n_lease_grants : int;
  mutable n_grace_waits : int;
  mutable n_lease_breaks : int;
  mutable n_lease_expired : int;
  mutable n_requests : int;
  mutable n_reads : int;
  mutable n_writes : int;
  mutable n_execs : int;
  mutable n_dispatches : int;
  mutable n_reclaimed : int;
}

let pid t = t.spid
let workers t = t.cfg.workers

let counter t ~inum =
  match Vsim.Itbl.find_opt t.versions inum with Some v -> v | None -> 1

(* The counter restarts with each incarnation; the epoch, which each
   recovery raises, keeps the pair strictly increasing across restarts. *)
let file_version t ~inum = (Fs.epoch t.fs lsl 32) lor counter t ~inum

let bump_version t ~inum =
  Vsim.Itbl.replace t.versions inum (counter t ~inum + 1)
let requests_served t = t.n_requests
let leases_granted t = t.n_lease_grants
let leases_broken t = t.n_lease_breaks
let leases_expired t = t.n_lease_expired
let grace_waits t = t.n_grace_waits
let pages_read t = t.n_reads
let pages_written t = t.n_writes
let execs_served t = t.n_execs
let dispatches t = t.n_dispatches
let handles_reclaimed t = t.n_reclaimed

(* Server address-space layout: a block-sized scratch buffer for request
   segments and page data, and a larger staging buffer for program loads. *)
let scratch_ptr = 0
let load_ptr = 8192

(* A handle's owner is gone when its process is no longer alive (local
   owners) or when the failure detector suspects its host (remote
   owners — the server only learns of a dead client through its own
   exhausted retransmissions, e.g. a MoveTo that never acks). *)
let owner_gone t owner =
  let ohost = Vkernel.Pid.host owner in
  if ohost = K.host t.kernel then not (K.alive t.kernel owner)
  else K.host_suspected t.kernel ~host:ohost

(* Under open pressure, evict the oldest handle whose owner is dead or
   suspected.  Returns [true] if a slot was freed. *)
let reclaim_dead_handle t =
  let best = ref None in
  Array.iteri
    (fun h slot ->
      match slot with
      | Some f when h > 0 && owner_gone t f.of_owner -> (
          match !best with
          | Some (stamp, _) when stamp <= f.of_stamp -> ()
          | _ -> best := Some (f.of_stamp, h))
      | _ -> ())
    t.handles;
  match !best with
  | Some (_, h) ->
      t.handles.(h) <- None;
      t.n_reclaimed <- t.n_reclaimed + 1;
      true
  | None -> false

(* Slots are handed out round the table from the one handed out last
   (slot 0 is never used), so a freed handle is reissued only after every
   other slot has been: until then a request through it gets
   [Sbad_handle] rather than reaching another file.  [i] counts the
   slots tried. *)
let rec free_slot t i =
  let slots = Array.length t.handles - 1 in
  if i >= slots then None
  else
    let h = 1 + ((t.last_handle + i) mod slots) in
    match t.handles.(h) with None -> Some h | Some _ -> free_slot t (i + 1)

let alloc_handle t ~owner inum =
  let slot =
    match free_slot t 0 with
    | Some h -> Some h
    | None -> if reclaim_dead_handle t then free_slot t 0 else None
  in
  match slot with
  | None -> None
  | Some h ->
      t.last_handle <- h;
      t.open_seq <- t.open_seq + 1;
      t.handles.(h) <-
        Some
          {
            of_inum = inum;
            of_owner = owner;
            of_stamp = t.open_seq;
            of_last_block = -1;
          };
      Some h

let lookup_handle t h =
  if h <= 0 || h >= Array.length t.handles then None else t.handles.(h)

let now t = Vsim.Engine.now (K.engine t.kernel)

(* A holder whose lease term has elapsed, or whose host the failure
   detector suspects, gets no callback: an expired lease was already
   self-invalidated by the client's clock, and a suspected host cannot
   be waited on without stalling the server behind a full
   retransmission exhaustion for every conflicting write. *)
let holder_expired t h =
  h.l_expiry <= now t || K.host_suspected t.kernel ~host:h.l_host

let live_holders t ~inum =
  match Vsim.Itbl.find_opt t.leases inum with
  | None -> []
  | Some hs -> List.filter (fun h -> not (holder_expired t h)) hs

let lease_holders t ~inum =
  List.map (fun h -> h.l_pid) (live_holders t ~inum)

(* Grant (or refresh) [cb]'s lease on [inum]; returns the term to
   piggyback on the reply, in microseconds (0 = nothing granted). *)
let grant_lease t ~inum ~cb =
  if t.cfg.lease_term_ns <= 0 || Vkernel.Pid.equal cb Vkernel.Pid.nil then 0
  else begin
    let expiry = now t + t.cfg.lease_term_ns in
    let holders =
      match Vsim.Itbl.find_opt t.leases inum with Some hs -> hs | None -> []
    in
    (match
       List.find_opt (fun h -> Vkernel.Pid.equal h.l_pid cb) holders
     with
    | Some h -> h.l_expiry <- Int.max h.l_expiry expiry
    | None ->
        let h =
          { l_pid = cb; l_host = Vkernel.Pid.host cb; l_expiry = expiry }
        in
        Vsim.Itbl.replace t.leases inum (holders @ [ h ]);
        t.n_lease_grants <- t.n_lease_grants + 1);
    t.cfg.lease_term_ns / 1_000
  end

(* Invalidate every other client's lease on [inum] before the caller
   acknowledges a conflicting mutation.  Each live holder is Sent a
   Break_lease callback and the Send blocks until the holder's callback
   fiber has discarded its cached blocks and Replied — so by the time
   the write is acked, no lease-holding client can serve stale data
   from cache.  Expired or suspected holders are dropped without a
   callback (their leases are void by clock or by failure detector);
   a holder whose callback Send fails is likewise dropped. *)
let break_leases t ~inum ~except =
  (* Post-restart grace: the crashed incarnation's lease table died with
     the host, so this incarnation cannot name — let alone break — the
     leases its predecessor granted.  It {e can} bound them: no
     pre-crash lease outlives crash time + term, which is at most
     [restart time + term].  Until that horizon passes, hold every
     conflicting acknowledgement; the holders' own clocks void their
     leases in the meantime (Gray-Cheriton lease recovery). *)
  let grace = t.grace_until - now t in
  if grace > 0 then begin
    t.n_grace_waits <- t.n_grace_waits + 1;
    Vsim.Proc.sleep grace
  end;
  match Vsim.Itbl.find_opt t.leases inum with
  | None -> ()
  | Some holders ->
      let keep =
        List.filter
          (fun h ->
            if Vkernel.Pid.equal h.l_pid except then true
            else begin
              if holder_expired t h then
                t.n_lease_expired <- t.n_lease_expired + 1
              else begin
                let m = Msg.create () in
                Protocol.encode_break_lease m ~inum;
                (match K.send t.kernel m h.l_pid with
                | K.Ok -> ()
                | K.Nonexistent | K.Bad_address | K.No_permission
                | K.Too_big | K.Retryable | K.Dead ->
                    (* Unreachable holder with an unexpired lease: fall
                       back to the Gray-Cheriton guarantee and wait out
                       the remainder of its term before letting the
                       conflicting write be acknowledged — the holder's
                       own clock voids the lease no later than this. *)
                    let remaining = h.l_expiry - now t in
                    if remaining > 0 then Vsim.Proc.sleep remaining);
                t.n_lease_breaks <- t.n_lease_breaks + 1
              end;
              false
            end)
          holders
      in
      if keep = [] then Vsim.Itbl.remove t.leases inum
      else Vsim.Itbl.replace t.leases inum keep

let fs_error_status : Fs.error -> Protocol.rstatus = function
  | Fs.Not_found -> Protocol.Snot_found
  | Fs.Already_exists -> Protocol.Sexists
  | Fs.No_space | Fs.No_inodes -> Protocol.Sno_space
  | Fs.Name_too_long | Fs.Too_big | Fs.Bad_argument -> Protocol.Sbad_request
  | Fs.Not_formatted -> Protocol.Sio_error

(* Charge the configured per-request file-system processing time. *)
let fs_work t = if t.cfg.fs_process_ns > 0 then
    Vhw.Cpu.charge (K.cpu t.kernel) t.cfg.fs_process_ns

let string_of_segment mem ~count =
  let bytes = Vkernel.Mem.read mem ~pos:scratch_ptr ~len:count in
  Bytes.to_string bytes

(* Read-ahead per Table 6-2: after replying to a sequential read, fetch
   the next block before the next Receive, overlapping disk latency with
   the client's next request's network time.  Callers gate this on the
   access actually being sequential (block = previous block + 1) —
   prefetching on a random-access stream wastes a full disk access per
   request. *)
let maybe_read_ahead t (f : open_file) ~block =
  if t.cfg.read_ahead then begin
    match Fs.size t.fs ~inum:f.of_inum with
    | Ok sz when (block + 1) * Fs.block_size < sz ->
        (match
           Fs.read t.fs ~inum:f.of_inum ~pos:((block + 1) * Fs.block_size)
             ~len:Fs.block_size
         with
        | Ok _ | Error _ -> ())
    | Ok _ | Error _ -> ()
  end

(* Success replies for ops bound to a file carry (inum, version) so
   version-aware clients can keep their block caches consistent.
   [grant] additionally piggybacks a lease when the request carried a
   callback pid [cb].  [reply] is the kernel primitive that sends it:
   [K.reply], or [K.reply_with_segment] applied to a page's segment. *)
let reply_ext t ~reply msg src ~cb ?(grant = false) value ~inum =
  Msg.clear_segment msg;
  Protocol.encode_reply_ext msg ~status:Protocol.Sok ~value ~inum
    ~version:(file_version t ~inum);
  let term_us = if grant then grant_lease t ~inum ~cb else 0 in
  Protocol.set_reply_lease msg ~term_us;
  ignore (reply t.kernel msg src)

let handle_request t ~mem ~msg ~src ~seg_count =
  t.n_requests <- t.n_requests + 1;
  let client_seg = Msg.segment msg in
  (* The callback pid must be read before the reply encoders reuse the
     message buffer. *)
  let cb = Protocol.request_callback msg in
  let reply st value =
    Msg.clear_segment msg;
    Protocol.encode_reply msg ~status:st ~value;
    ignore (K.reply t.kernel msg src)
  in
  (* A write is acknowledged only once the file has its new version and
     every other holder's lease on it is broken. *)
  let ack_write (f : open_file) n =
    bump_version t ~inum:f.of_inum;
    break_leases t ~inum:f.of_inum ~except:cb;
    reply_ext t ~reply:K.reply msg src ~cb n ~inum:f.of_inum
  in
  match Protocol.decode_request msg with
  | None -> reply Protocol.Sbad_request 0
  | Some (op, handle, block, count) -> (
      let eng = K.engine t.kernel in
      if Vsim.Trace.tracing eng then
        Vsim.Trace.event eng
          (Vsim.Event.Fs_request
             {
               host = K.host t.kernel;
               op = Protocol.op_to_string op;
               block;
               count;
             });
      match op with
      | Protocol.Open | Protocol.Create -> (
          let name = string_of_segment mem ~count:seg_count in
          fs_work t;
          let inum =
            match op with
            | Protocol.Create -> (
                match Fs.create t.fs name with
                | Ok inum ->
                    (* Fresh inode: bumping (rather than resetting to 1)
                       invalidates stale cached blocks if the inum is
                       being reused after an unlink.  Any lease left over
                       from the inode's previous life is broken for the
                       same reason. *)
                    bump_version t ~inum;
                    break_leases t ~inum ~except:cb;
                    Ok inum
                | Error Fs.Already_exists -> (
                    match Fs.lookup t.fs name with
                    | Some inum -> Ok inum
                    | None -> Error Fs.Not_found)
                | Error e -> Error e)
            | _ -> (
                match Fs.lookup t.fs name with
                | Some inum -> Ok inum
                | None -> Error Fs.Not_found)
          in
          match inum with
          | Error e -> reply (fs_error_status e) 0
          | Ok inum -> (
              match alloc_handle t ~owner:src inum with
              | None -> reply Protocol.Sno_space 0
              | Some h ->
                  reply_ext t ~reply:K.reply msg src ~cb ~grant:true h ~inum))
      | Protocol.Close -> (
          match lookup_handle t handle with
          | None -> reply Protocol.Sbad_handle 0
          | Some _ ->
              t.handles.(handle) <- None;
              reply Protocol.Sok 0)
      | Protocol.Delete -> (
          let name = string_of_segment mem ~count:seg_count in
          fs_work t;
          let victim = Fs.lookup t.fs name in
          match Fs.unlink t.fs name with
          | Ok () ->
              (match victim with
              | Some inum ->
                  (* Every handle on the dead inode dies with it: a later
                     create may reuse the inode, and a write through an
                     old handle would land in the new file. *)
                  Array.iteri
                    (fun h slot ->
                      match slot with
                      | Some f when f.of_inum = inum -> t.handles.(h) <- None
                      | Some _ | None -> ())
                    t.handles;
                  (* Every lease on the dead inode is void, including the
                     deleter's own — its cached blocks describe a file
                     that no longer exists. *)
                  break_leases t ~inum ~except:Vkernel.Pid.nil
              | None -> ());
              reply Protocol.Sok 0
          | Error e -> reply (fs_error_status e) 0)
      | Protocol.Stat -> (
          (* The extended reply lets a client whose lease lapsed
             revalidate its cache and renew the lease in one exchange. *)
          match lookup_handle t handle with
          | None -> reply Protocol.Sbad_handle 0
          | Some f -> (
              match Fs.size t.fs ~inum:f.of_inum with
              | Ok sz ->
                  reply_ext t ~reply:K.reply msg src ~cb ~grant:true sz
                    ~inum:f.of_inum
              | Error e -> reply (fs_error_status e) 0))
      | Protocol.Read_page | Protocol.Read_basic -> (
          (* Both page reads check the handle and the client's writable
             segment, then read up to a block into the scratch area. *)
          match lookup_handle t handle, client_seg with
          | None, _ -> reply Protocol.Sbad_handle 0
          | Some _, (None | Some ((Msg.Read_only, _, _))) ->
              reply Protocol.Sbad_request 0
          | Some f, Some ((Msg.Write_only | Msg.Read_write), dptr, dlen) -> (
              t.n_reads <- t.n_reads + 1;
              let count = Int.min (Int.min count Fs.block_size) dlen in
              fs_work t;
              match
                Fs.read_into t.fs ~inum:f.of_inum ~pos:(block * Fs.block_size)
                  ~len:count mem ~at:scratch_ptr
              with
              | Error e -> reply (fs_error_status e) 0
              | Ok n when op = Protocol.Read_basic -> (
                  (* The Thoth-style Send-Receive-MoveTo-Reply page read. *)
                  match
                    K.move_to t.kernel ~dst_pid:src ~dst:dptr
                      ~src:scratch_ptr ~count:n
                  with
                  | K.Ok -> reply Protocol.Sok n
                  | K.Nonexistent | K.Bad_address | K.No_permission
                  | K.Too_big | K.Retryable | K.Dead ->
                      reply Protocol.Sio_error 0)
              | Ok n ->
                  reply_ext t
                    ~reply:
                      (K.reply_with_segment ~destptr:dptr ~segptr:scratch_ptr
                         ~segsize:n)
                    msg src ~cb ~grant:true n ~inum:f.of_inum;
                  (* A fresh handle ([of_last_block = -1]) starting at
                     block 0 counts as sequential. *)
                  let sequential = block = f.of_last_block + 1 in
                  f.of_last_block <- block;
                  if sequential then maybe_read_ahead t f ~block))
      | Protocol.Write_page -> (
          match lookup_handle t handle with
          | None -> reply Protocol.Sbad_handle 0
          | Some f ->
              t.n_writes <- t.n_writes + 1;
              let n = Int.min seg_count Fs.block_size in
              let data = Vkernel.Mem.read mem ~pos:scratch_ptr ~len:n in
              fs_work t;
              match
                Fs.write t.fs ~inum:f.of_inum ~pos:(block * Fs.block_size)
                  data
              with
              | Ok () -> ack_write f n
              | Error e -> reply (fs_error_status e) 0)
      | Protocol.Write_basic -> (
          match lookup_handle t handle, client_seg with
          | None, _ -> reply Protocol.Sbad_handle 0
          | Some _, (None | Some ((Msg.Write_only, _, _))) ->
              reply Protocol.Sbad_request 0
          | Some f, Some ((Msg.Read_only | Msg.Read_write), sptr, slen) -> (
              t.n_writes <- t.n_writes + 1;
              let n = Int.min (Int.min count Fs.block_size) slen in
              match
                K.move_from t.kernel ~src_pid:src ~dst:scratch_ptr ~src:sptr
                  ~count:n
              with
              | K.Ok -> (
                  let data = Vkernel.Mem.read mem ~pos:scratch_ptr ~len:n in
                  fs_work t;
                  match
                    Fs.write t.fs ~inum:f.of_inum
                      ~pos:(block * Fs.block_size) data
                  with
                  | Ok () -> ack_write f n
                  | Error e -> reply (fs_error_status e) 0)
              | K.Nonexistent | K.Bad_address | K.No_permission | K.Too_big
              | K.Retryable | K.Dead ->
                  reply Protocol.Sio_error 0))
      | Protocol.Exec -> (
          (* The general program-execution facility of Section 7: scan the
             requested page range server-side and return a checksum,
             avoiding any page traffic on the network. *)
          match lookup_handle t handle with
          | None -> reply Protocol.Sbad_handle 0
          | Some f -> (
              t.n_execs <- t.n_execs + 1;
              fs_work t;
              let rec scan b remaining sum =
                if remaining = 0 then Ok sum
                else
                  match
                    Fs.read t.fs ~inum:f.of_inum ~pos:(b * Fs.block_size)
                      ~len:Fs.block_size
                  with
                  | Error e -> Error e
                  | Ok data ->
                      Vhw.Cpu.charge (K.cpu t.kernel) exec_compute_ns_per_page;
                      let s = ref sum in
                      Bytes.iter
                        (fun c -> s := (!s + Char.code c) land 0xFFFF_FFFF)
                        data;
                      scan (b + 1) (remaining - 1) !s
              in
              match scan block count 0 with
              | Ok sum -> reply Protocol.Sok sum
              | Error e -> reply (fs_error_status e) 0))
      | Protocol.Load_program -> (
          (* Push the whole file into the waiting program space with
             MoveTo, [transfer_unit] bytes per operation. *)
          match lookup_handle t handle, client_seg with
          | None, _ -> reply Protocol.Sbad_handle 0
          | Some _, (None | Some ((Msg.Read_only, _, _))) ->
              reply Protocol.Sbad_request 0
          | Some f, Some ((Msg.Write_only | Msg.Read_write), dptr, dlen) -> (
              fs_work t;
              match Fs.size t.fs ~inum:f.of_inum with
              | Error e -> reply (fs_error_status e) 0
              | Ok sz -> (
                  let n = Int.min (Int.min sz dlen) count in
                  match
                    Fs.read_into t.fs ~inum:f.of_inum ~pos:0 ~len:n mem
                      ~at:load_ptr
                  with
                  | Error e -> reply (fs_error_status e) 0
                  | Ok n ->
                      let rec push off ok =
                        if (not ok) || off >= n then ok
                        else begin
                          let chunk = Int.min t.cfg.transfer_unit (n - off) in
                          match
                            K.move_to t.kernel ~dst_pid:src ~dst:(dptr + off)
                              ~src:(load_ptr + off) ~count:chunk
                          with
                          | K.Ok -> push (off + chunk) true
                          | K.Nonexistent | K.Bad_address | K.No_permission
                          | K.Too_big | K.Retryable | K.Dead ->
                              false
                        end
                      in
                      if push 0 true then reply Protocol.Sok n
                      else reply Protocol.Sio_error 0))))

(* The server's pid: the one clients Send to, registered under the
   configured logical id. *)
let register t pid =
  t.spid <- pid;
  match t.cfg.register_id with
  | Some lid -> K.set_pid t.kernel ~logical_id:lid pid K.Any
  | None -> ()

(* The Receive loop of a process that serves requests.  In single-worker
   mode it is the server itself: no dispatcher, no extra IPC.  In
   worker-team mode (the paper's Section 6 note that the V server is "a
   team of processes" so disk latency overlaps request handling) a
   worker first announces itself idle with a Send of [idle] to the
   dispatcher; the dispatcher Forwards a queued client request to it
   (retargeting the client's reply path and any piggybacked segment,
   Thoth-style) and then Replies to the idle Send to wake it.  The
   worker Receives the forwarded request, serves it against the shared
   [Fs.t]/handle table, and replies directly to the client. *)
let serve ?idle t mem =
  let msg = Msg.create () in
  let rec loop () =
    (match idle with
    | Some idle -> ignore (K.send t.kernel idle t.spid)
    | None -> ());
    let src, seg_count =
      K.receive_with_segment t.kernel msg ~segptr:scratch_ptr
        ~segsize:Fs.block_size
    in
    handle_request t ~mem ~msg ~src ~seg_count;
    loop ()
  in
  loop ()

let dispatcher_body t pid () =
  register t pid;
  let msg = Msg.create () in
  let wake = Msg.create () in
  let idle : Vkernel.Pid.t Queue.t = Queue.create () in
  let pending : (Vkernel.Pid.t * Msg.t) Queue.t = Queue.create () in
  let is_worker src =
    List.exists (fun w -> Vkernel.Pid.equal w src) t.worker_pids
  in
  let rec dispatch () =
    if not (Queue.is_empty idle || Queue.is_empty pending) then begin
      let src, m = Queue.pop pending in
      let w = Queue.peek idle in
      match K.forward t.kernel m ~from_pid:src ~to_pid:w with
      | K.Ok ->
          ignore (Queue.pop idle);
          t.n_dispatches <- t.n_dispatches + 1;
          let eng = K.engine t.kernel in
          if Vsim.Trace.tracing eng then
            Vsim.Trace.event eng
              (Vsim.Event.Server_dispatch
                 {
                   host = K.host t.kernel;
                   worker = Vkernel.Pid.to_int w;
                   busy = List.length t.worker_pids - Queue.length idle;
                   queued = Queue.length pending;
                 });
          ignore (K.reply t.kernel wake w);
          dispatch ()
      | K.Nonexistent | K.Bad_address | K.No_permission | K.Too_big
      | K.Retryable | K.Dead ->
          (* The client vanished while queued; drop its request and keep
             the worker idle for the next one. *)
          dispatch ()
    end
  in
  let rec loop () =
    let src = K.receive t.kernel msg in
    if is_worker src then Queue.push src idle
    else Queue.push (src, Msg.copy msg) pending;
    dispatch ();
    loop ()
  in
  loop ()

(* Process bodies are deferred fibers (Engine.after 0), so every field
   assigned below is visible before any body runs. *)
let spawn_team t =
  let kernel = t.kernel in
  if t.cfg.workers = 1 then begin
    let pid =
      K.spawn kernel ~name:"file-server" ~mem_size:(256 * 1024) (fun pid ->
          register t pid;
          serve t (K.memory kernel pid))
    in
    t.spid <- pid
  end
  else begin
    let pid =
      K.spawn kernel ~name:"file-server" ~mem_size:4096 (fun pid ->
          dispatcher_body t pid ())
    in
    t.spid <- pid;
    t.worker_pids <-
      List.init t.cfg.workers (fun i ->
          K.spawn kernel
            ~name:(Printf.sprintf "fs-worker-%d" i)
            ~mem_size:(256 * 1024)
            (fun pid ->
              serve ~idle:(Msg.create ()) t (K.memory kernel pid)))
  end

let start kernel fs ?(config = default_config) ?(restartable = false) () =
  if config.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if config.transfer_unit < 1 then
    invalid_arg "Server.start: transfer_unit must be >= 1";
  (* Without a journal a recovery has no epoch to raise, so versions
     after a restart could repeat the old incarnation's. *)
  if restartable && not (Fs.journaled fs) then
    invalid_arg "Server.start: a restartable server needs a journal";
  let t =
    {
      kernel;
      fs;
      cfg = config;
      spid = Vkernel.Pid.nil;
      worker_pids = [];
      handles = Array.make (Int.max 2 config.max_open) None;
      last_handle = 0;
      versions = Vsim.Itbl.create 16;
      leases = Vsim.Itbl.create 16;
      open_seq = 0;
      grace_until = 0;
      n_lease_grants = 0;
      n_grace_waits = 0;
      n_lease_breaks = 0;
      n_lease_expired = 0;
      n_requests = 0;
      n_reads = 0;
      n_writes = 0;
      n_execs = 0;
      n_dispatches = 0;
      n_reclaimed = 0;
    }
  in
  if restartable then
    K.on_restart kernel (fun () ->
        (* The handle table, version counters, lease table and process
           team were volatile state of the crashed host; the disk is
           what survived.  Run filesystem recovery first, which raises
           the epoch, then bring the team back up — the server answers
           no requests until the journal has been replayed.  Dropping
           the lease table means recovery re-grants from scratch;
           clients void their own leases when they detect the
           failover. *)
        Array.fill t.handles 0 (Array.length t.handles) None;
        t.last_handle <- 0;
        Vsim.Itbl.reset t.versions;
        Vsim.Itbl.reset t.leases;
        (* If the dead incarnation ever granted a lease, some may still
           be live on client clocks; withhold conflicting acks until the
           longest possible one has expired (see break_leases). *)
        if t.n_lease_grants > 0 && t.cfg.lease_term_ns > 0 then
          t.grace_until <- now t + t.cfg.lease_term_ns;
        t.worker_pids <- [];
        t.spid <- Vkernel.Pid.nil;
        ignore
          (K.spawn kernel ~name:"fs-recover" ~mem_size:4096 (fun _ ->
               Fs.recover t.fs;
               spawn_team t)));
  spawn_team t;
  t
