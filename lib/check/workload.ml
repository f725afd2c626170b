module K = Vkernel.Kernel
module Msg = Vkernel.Msg
module Mem = Vkernel.Mem
module Io = Vfs.Client.Io

type op_result = { op : string; ok : bool; detail : string }

type kernel_probe = {
  host : int;
  tables : K.table_counts;
  kstats : K.stats;
}

type 'x report = {
  completed : bool;
  unfinished : (string * int) option;
  events : int;
  frames : int;
  crashes : int;
  restarts : int;
  ops : op_result list;
  kernels : kernel_probe list;
  media : (string * Vnet.Medium.stats) list;
  extra : 'x;
}

type target = Nothing | Server of int | Server_stop of int | Gateway

(* One segment (a testbed) or several joined by a gateway (a topology). *)
type network = Hosts of int | Segments of Vworkload.Topology.segment_spec list

(* A pre-populated file system on [fs_host]'s disk. *)
type fs = { fs_host : int; journal_blocks : int; files : (string * int) list }

type world = {
  eng : Vsim.Engine.t;
  hosts : Vworkload.Testbed.host array;
  gateway : Vnet.Gateway.t option;
  fs : Vfs.Fs.t list;  (* the spec's file systems, in order *)
}

(* What a client's bespoke steps see: [setup]'s result, the client's
   kernel, and the files it has opened, by name. *)
type 's env = { st : 's; k : K.t; file : string -> Io.file }

(* Opens files over one connection. *)
type opener = string -> (Io.file, Vfs.Client.error) result

(* One step of a client's script.  Every step but [Await], [Advance] and
   [Do] records one op, named [op].
   - [Connect]: open [file] over a fresh connection from the client's
     session, up to [tries] times 20 ms apart, dropping the cached
     GetPid binding of [forget] before each retry.
   - [Open]: open [file] over the last connection.
   - [Read]: read [expect]'s length at [block] and compare.
   - [Write]: write [data] at [block].
   - [Await]: poll the lockstep phase every 1 ms, up to 5 s, until it
     reaches [phase].  [Advance] raises the phase.
   - [Call]: a bespoke exchange, skipped unless the op [needs] names
     succeeded; [Ok (ok, detail)] is recorded as is.
   - [Do]: bespoke bookkeeping. *)
type 's step =
  | Connect of { op : string; file : string; tries : int; forget : int option }
  | Open of { op : string; file : string }
  | Read of { op : string; file : string; block : int; expect : Bytes.t }
  | Write of { op : string; file : string; block : int; data : Bytes.t }
  | Close of { op : string; file : string }
  | Await of { op : string; phase : int }
  | Advance of int
  | Call of {
      op : string;
      needs : string option;
      run : 's env -> (bool * string, Vfs.Client.error) result;
    }
  | Do of ('s env -> unit)

(* [session] is applied once when the client starts; each [Connect] try
   calls its result for a fresh connection. *)
type 's client = {
  host : int;
  name : string;
  session : 's env -> unit -> (opener, Vfs.Client.error) result;
  script : 's step list;
}

(* What the clients left for the audit: the acknowledged [Write] blocks,
   and the [Read]s that failed or did not return the script's bytes. *)
type run = {
  quiescent : bool;
  completed : bool;
  acked : int list;
  stale : string list;
}

(* [setup] starts the servers and spawns the workload's own services in
   a fixed order, before the clients: spawn order fixes pids and event
   sequence numbers, and both appear in traces.  [audit] runs after the
   run, before the report's counters are read. *)
type ('s, 'x) spec = {
  network : network;
  kernel_config : K.config;
  fs : fs list;
  target : target;
  max_events : int;
  setup : world -> 's;
  clients : 's client list;
  audit : world -> 's -> run -> 'x;
}

type 'x t = Spec : ('s, 'x) spec -> 'x t

(* The paper's protocol with a fast fixed T so faulted runs stay short:
   every retransmission costs 10 simulated milliseconds, and a depth-2
   schedule can force at most a handful of them. *)
let fast_config =
  { K.default_config with retransmit_timeout_ns = Vsim.Time.ms 10 }

let bs = Vfs.Fs.block_size
let pattern = Vworkload.Testbed.pattern_byte
let block_of f = Bytes.init bs (fun i -> pattern (f i))
let kernel w i = w.hosts.(i - 1).Vworkload.Testbed.kernel
let target (Spec s) = s.target

let client ?(session = fun _ () -> Error Vfs.Client.No_server) host name
    script =
  { host; name; session; script }

let ops (Spec s) =
  List.concat_map
    (fun c ->
      List.filter_map
        (function
          | Connect { op; _ } | Open { op; _ } | Read { op; _ }
          | Write { op; _ } | Close { op; _ } | Call { op; _ } ->
              Some op
          | Await _ | Advance _ | Do _ -> None)
        c.script)
    s.clients

let audit_proc w f =
  let (_ : Vsim.Proc.t) = Vsim.Proc.spawn w.eng ~name:"audit" f in
  Vsim.Engine.run w.eng

(* What the clients of one run share: the op log in program order, the
   blocks whose writes were acknowledged, the reads that missed the
   script's bytes, and the lockstep phase counter (plain heap state, not
   IPC: the coordination channel must not add faultable frames). *)
type log = {
  mutable ops : op_result list;
  mutable acked : int list;
  mutable stale : string list;
  mutable phase : int;
}

let advance log n = if n > log.phase then log.phase <- n

let await log n =
  let rec go tries =
    if log.phase >= n then true
    else if tries = 0 then false
    else begin
      Vsim.Proc.sleep (Vsim.Time.ms 1);
      go (tries - 1)
    end
  in
  go 5000

(* Run one client's script; [true] iff it reached the end.  [last] is
   the position of the client's latest op in the run's log.  A step on
   a file that is not open is skipped, and so is a [Call] whose [needs]
   op did not succeed.  A failed open that leaves the client no file
   (open or closed) ends the client, as does an await that times out;
   an ended client still makes its remaining [Advance]s, so its partner
   is not left waiting. *)
let run_client log st k ~last (c : _ client) =
  let record op ok detail =
    log.ops <- { op; ok; detail } :: log.ops;
    last := List.length log.ops
  in
  let fail op e = record op false (Vfs.Client.error_to_string e) in
  let files = ref [] in
  let env = { st; k; file = (fun f -> List.assoc f !files) } in
  let attach = c.session env in
  let opener = ref (fun _ -> Error Vfs.Client.No_server) in
  let opened op file = function
    | Ok f ->
        files := (file, f) :: List.remove_assoc file !files;
        record op true "ok";
        true
    | Error detail ->
        files := List.remove_assoc file !files;
        record op false detail;
        !files <> []
  in
  let on file f =
    Option.iter f (List.assoc_opt file !files);
    true
  in
  let step = function
    | Connect { op; file; tries; forget } ->
        (* The crash can land before the open sticks, before any
           [Io.file] exists to carry session recovery, so each try
           reconnects from scratch. *)
        let rec go n last =
          if n = 0 then Error last
          else begin
            if n < tries then begin
              Option.iter (fun lid -> K.forget_pid k ~logical_id:lid) forget;
              Vsim.Proc.sleep (Vsim.Time.ms 20)
            end;
            match
              Result.bind (attach ()) (fun o ->
                  opener := o;
                  o file)
            with
            | Ok f -> Ok f
            | Error e -> go (n - 1) (Vfs.Client.error_to_string e)
          end
        in
        opened op file (go tries "never attempted")
    | Open { op; file } ->
        opened op file
          (Result.map_error Vfs.Client.error_to_string (!opener file))
    | Read { op; file; block; expect } ->
        on file (fun f ->
            match Io.read f ~off:(block * bs) ~len:(Bytes.length expect) with
            | Error e ->
                fail op e;
                log.stale <- (op ^ ": read failed") :: log.stale
            | Ok got ->
                let ok = Bytes.equal got expect in
                record op ok "data check";
                if not ok then
                  log.stale <-
                    Printf.sprintf
                      "%s: block %d does not hold the latest acknowledged \
                       write"
                      op block
                    :: log.stale)
    | Write { op; file; block; data } ->
        on file (fun f ->
            match Io.write f ~off:(block * bs) (Bytes.copy data) with
            | Ok n when n = Bytes.length data ->
                log.acked <- block :: log.acked;
                record op true "ok"
            | Ok n -> record op false (Printf.sprintf "short write %d" n)
            | Error e -> fail op e)
    | Close { op; file } ->
        on file (fun f ->
            match Io.close f with
            | Ok () -> record op true "ok"
            | Error e -> fail op e)
    | Await { op; phase } ->
        await log phase
        || begin
             record op false (Printf.sprintf "phase %d never reached" phase);
             false
           end
    | Advance n ->
        advance log n;
        true
    | Call { op; needs; run } ->
        (match needs with
        | Some n when not (List.exists (fun o -> o.op = n && o.ok) log.ops)
          ->
            ()
        | _ -> (
            match run env with
            | Ok (ok, detail) -> record op ok detail
            | Error e -> fail op e));
        true
    | Do f ->
        f env;
        true
  in
  let rec go = function
    | [] -> true
    | s :: rest ->
        if step s then go rest
        else begin
          List.iter (function Advance n -> advance log n | _ -> ()) rest;
          false
        end
  in
  go c.script

let run (Spec s) ?(fault = Vnet.Fault.none) ?(max_events = s.max_events) ?seed
    () =
  let kernel_config = s.kernel_config in
  let world, media, make_fs =
    match s.network with
    | Hosts n ->
        let tb = Vworkload.Testbed.create ?seed ~hosts:n ~kernel_config () in
        ( { eng = tb.eng; hosts = tb.hosts; gateway = None; fs = [] },
          [ ("medium", tb.medium) ],
          fun (f : fs) ->
            Vworkload.Testbed.make_test_fs tb ~host:f.fs_host
              ~journal_blocks:f.journal_blocks ~files:f.files () )
    | Segments segments ->
        let tp = Vworkload.Topology.create ?seed ~kernel_config ~segments () in
        ( { eng = tp.eng; hosts = tp.hosts; gateway = Some tp.gateway; fs = [] },
          List.mapi
            (fun i m -> (Printf.sprintf "segment %d" i, m))
            (Array.to_list tp.media),
          fun (f : fs) ->
            Vworkload.Topology.make_fs tp ~host:f.fs_host
              ~journal_blocks:f.journal_blocks ~files:f.files () )
  in
  (* Faults and host events act on the first segment. *)
  let medium = snd (List.hd media) in
  let crashes = ref 0 and restarts = ref 0 in
  let on_host crash restart =
    Vnet.Medium.set_host_handler medium
      ~crash:(fun () ->
        incr crashes;
        crash ())
      ~restart:(fun () ->
        incr restarts;
        restart ())
  in
  (match s.target with
  | Nothing -> ()
  | Server i ->
      let k = kernel world i in
      on_host (fun () -> K.crash k) (fun () -> K.restart k)
  | Server_stop i ->
      (* Crash-stop: the host never returns, restarts are only counted. *)
      on_host (fun () -> K.crash (kernel world i)) ignore
  | Gateway ->
      let gw = Option.get world.gateway in
      on_host (fun () -> Vnet.Gateway.crash gw) (fun () ->
          Vnet.Gateway.restart gw));
  let world = { world with fs = List.map make_fs s.fs } in
  let st = s.setup world in
  let log = { ops = []; acked = []; stale = []; phase = 0 } in
  let clients =
    List.map
      (fun (c : _ client) ->
        let k = kernel world c.host in
        let fin = ref false and last = ref 0 in
        let (_ : Vkernel.Pid.t) =
          K.spawn k ~name:c.name (fun _ -> fin := run_client log st k ~last c)
        in
        (c.name, fin, last))
      s.clients
  in
  Vnet.Medium.set_fault medium fault;
  let quiescent, events =
    match Vsim.Engine.run_bounded ~max_events world.eng with
    | `Quiescent n -> (true, n)
    | `Exhausted n -> (false, n)
  in
  let unfinished =
    if not quiescent then None
    else
      List.find_map
        (fun (name, fin, last) -> if !fin then None else Some (name, !last))
        clients
  in
  let completed = quiescent && unfinished = None in
  let extra =
    s.audit world st
      {
        quiescent;
        completed;
        acked = List.rev log.acked;
        stale = List.rev log.stale;
      }
  in
  let media = List.map (fun (label, m) -> (label, Vnet.Medium.stats m)) media in
  let first = snd (List.hd media) in
  let report =
    {
      completed;
      unfinished;
      events;
      frames = first.Vnet.Medium.attempted - first.Vnet.Medium.excessive;
      crashes = !crashes;
      restarts = !restarts;
      ops = List.rev log.ops;
      (* A crash-stopped host's tables are not required to drain. *)
      kernels =
        List.filter_map
          (fun (h : Vworkload.Testbed.host) ->
            let k = h.kernel in
            match s.target with
            | Server_stop _ when K.is_down k -> None
            | _ ->
                Some
                  {
                    host = h.addr;
                    tables = K.table_counts k;
                    kstats = K.stats k;
                  })
          (Array.to_list world.hosts);
      media;
      extra;
    }
  in
  (* Judged: every fiber still parked (servers in Receive, processes a
     crash killed) can go. *)
  Vsim.Proc.reap world.eng;
  report

(* Crash recovery: a pre-populated file whose blocks are overwritten.
   Old images come from the testbed pattern and new ones from a distinct
   per-block pattern, so a torn block, neither all-old nor all-new, is
   detectable byte-for-byte.  Like every image a script or audit compares
   against, they are built once and shared: [Write] and [Mem.write] copy
   them, and nothing changes them. *)
let file_blocks = 4 (* the most blocks a workload's file holds *)

let old_blocks =
  Array.init file_blocks (fun b -> block_of (fun i -> (b * bs) + i))

let new_blocks =
  Array.init file_blocks (fun b -> block_of (fun i -> 7000 + (b * bs) + i))

let old_block b = old_blocks.(b)
let new_block b = new_blocks.(b)

type recovery = {
  acked : int list;
  acked_lost : int list;
  torn : int list;
  fsck : string list;
}

(* Overwrite [blocks] of [file] with their new images, one op each, then
   read them back in one. *)
let overwrite file blocks =
  let write b =
    let op = Printf.sprintf "write@%d" b in
    Write { op; file; block = b; data = new_block b }
  in
  let expect = Bytes.concat Bytes.empty (List.map new_block blocks) in
  List.map write blocks
  @ [ Read { op = "readback"; file; block = List.hd blocks; expect } ]

(* Post-mortem audit straight at the file system: what does the disk
   actually hold?  [recover] first runs recovery there, the model of
   carrying the disk of a host that never came back to another
   machine. *)
let audit_recovery (w : world) (r : run) ~recover ~file =
  let fs = List.hd w.fs in
  let acked_lost = ref [] and torn = ref [] and fsck = ref [] in
  if r.quiescent then
    audit_proc w (fun () ->
        if recover then Vfs.Fs.recover fs;
        (match Vfs.Fs.lookup fs file with
        | None -> fsck := [ Printf.sprintf "audit: file %s vanished" file ]
        | Some inum ->
            for b = 0 to file_blocks - 1 do
              match Vfs.Fs.read fs ~inum ~pos:(b * bs) ~len:bs with
              | Error _ -> torn := b :: !torn
              | Ok got ->
                  let is_new = Bytes.equal got (new_block b) in
                  if (not is_new) && not (Bytes.equal got (old_block b)) then
                    torn := b :: !torn;
                  if List.mem b r.acked && not is_new then
                    acked_lost := b :: !acked_lost
            done);
        (* The last file system is checked first: its disk reads come
           first in a trace. *)
        fsck :=
          !fsck @ List.fold_right (fun fs acc -> Vfs.Fs.check fs @ acc) w.fs []);
  {
    acked = r.acked;
    acked_lost = List.rev !acked_lost;
    torn = List.rev !torn;
    fsck = !fsck;
  }

(* The five workloads. *)

let cache policy (e : _ env) =
  Vfs.Cache.create (K.engine e.k) ~host:(K.host e.k)
    { Vfs.Cache.capacity_blocks = 8; policy }

(* One attempt at a fresh connection to the file server; [opener] opens
   files over it. *)
let io_session opener (e : _ env) () =
  Result.map opener (Vfs.Client.connect e.k ())

(* A server process: receive, [count] the request, handle it, loop.
   [init] runs once, before the first receive. *)
let serve k name ?(init = ignore) ~count handle =
  K.spawn k ~name (fun pid ->
      init pid;
      let msg = Msg.create () in
      let rec loop () =
        let src = K.receive k msg in
        count ();
        handle pid msg src;
        loop ()
      in
      loop ())

let bump k ~add _ msg src =
  Msg.set_u8 msg 4 ((Msg.get_u8 msg 4 + add) land 0xff);
  ignore (K.reply k msg src)

let call ?needs op run = Call { op; needs; run }

(* --- net: every remote IPC path the paper's protocol arguments cover,
   and a cached write-back file write. *)

type net = {
  ledger : (string * int) list;
  pages_written : int;
  file_ok : bool;
}

type net_state = {
  server : Vfs.Server.t;
  counts : (string * int ref) list;
  pids : (string * Vkernel.Pid.t) list;
}

let move_len = 3000 (* 3 MoveTo fragments *)
let from_len = 2500 (* 3 MoveFrom fragments *)
let seg_len = 512
let io_block = 2 (* file block the cached write dirties *)
let io_expect = block_of (fun i -> 1000 + i)

(* The server's reply segment, the mover's MoveTo source and the
   client's MoveFrom source, each also what its receiver checks. *)
let seg_image = Bytes.init seg_len pattern
let move_image = Bytes.init move_len (fun i -> pattern (i * 3))
let from_image = Bytes.init from_len (fun i -> pattern (8192 + i))

let net_setup (w : world) =
  let k2 = kernel w 2 and k3 = kernel w 3 in
  let server = Vfs.Server.start k2 (List.hd w.fs) () in
  (* Server-side ledger: every request a server application actually
     processes.  The kernel's duplicate filtering must keep each at
     exactly one; a retransmission or duplicated frame that leaks
     through to the application shows up here. *)
  let counts =
    List.map
      (fun name -> (name, ref 0))
      [ "echo"; "seg"; "mover"; "reader"; "dispatcher"; "worker" ]
  in
  let pids = ref [] in
  let serve ?init k name handle =
    let count () = incr (List.assoc name counts) in
    pids := (name, serve k name ?init ~count handle) :: !pids
  in
  let load image pid = Mem.write (K.memory k2 pid) ~pos:0 image in
  serve k2 "echo" (bump k2 ~add:1);
  serve k2 "seg" ~init:(load seg_image) (fun _ msg src ->
      match Msg.writable_segment msg with
      | Some (p, _) ->
          Msg.clear_segment msg;
          ignore
            (K.reply_with_segment k2 msg src ~destptr:p ~segptr:0
               ~segsize:seg_len)
      | None -> ignore (K.reply k2 msg src));
  serve k2 "mover" ~init:(load move_image) (fun _ msg src ->
      ignore (K.move_to k2 ~dst_pid:src ~dst:4096 ~src:0 ~count:move_len);
      ignore (K.reply k2 msg src));
  serve k2 "reader" (fun pid msg src ->
      let st = K.move_from k2 ~src_pid:src ~dst:0 ~src:8192 ~count:from_len in
      let got = Mem.read (K.memory k2 pid) ~pos:0 ~len:from_len in
      let data_ok = Bytes.equal got from_image in
      Msg.set_u8 msg 4 (if st = K.Ok && data_ok then 1 else 0);
      (* Diagnosis detail: the reader's status and data verdict. *)
      Msg.set_u8 msg 5 (K.status_to_code st);
      Msg.set_u8 msg 6 (if data_ok then 1 else 0);
      ignore (K.reply k2 msg src));
  serve k3 "worker" (bump k3 ~add:7);
  serve k2 "dispatcher" (fun _ msg src ->
      let worker = List.assoc "worker" !pids in
      ignore (K.forward k2 msg ~from_pid:src ~to_pid:worker));
  { server; counts; pids = !pids }

(* Send to the named service: [prepare] the message and the client's
   memory, then [check] the reply. *)
let exchange op service prepare check =
  call op (fun (e : net_state env) ->
      let mem = K.my_memory e.k in
      let msg = Msg.create () in
      prepare mem msg;
      let st = K.send e.k msg (List.assoc service e.st.pids) in
      Ok (st = K.Ok && check mem msg, K.status_to_string st))

let net_script =
  [
    (* Basic Send/Reply. *)
    exchange "srr" "echo"
      (fun _ msg -> Msg.set_u8 msg 4 41)
      (fun _ msg -> Msg.get_u8 msg 4 = 42);
    (* ReplyWithSegment into a write grant. *)
    exchange "reply-segment" "seg"
      (fun _ msg -> Msg.set_segment msg Msg.Write_only ~ptr:2048 ~len:seg_len)
      (fun mem _ ->
        Bytes.equal (Mem.read mem ~pos:2048 ~len:seg_len) seg_image);
    (* Inbound MoveTo page train. *)
    exchange "move-to" "mover"
      (fun _ msg ->
        Msg.set_segment msg Msg.Read_write ~ptr:4096 ~len:move_len;
        Msg.set_no_piggyback msg)
      (fun mem _ ->
        Bytes.equal (Mem.read mem ~pos:4096 ~len:move_len) move_image);
    (* Outbound MoveFrom page train; the reader verifies. *)
    call "move-from" (fun e ->
        Mem.write (K.my_memory e.k) ~pos:8192 from_image;
        let msg = Msg.create () in
        Msg.set_segment msg Msg.Read_only ~ptr:8192 ~len:from_len;
        Msg.set_no_piggyback msg;
        let st = K.send e.k msg (List.assoc "reader" e.st.pids) in
        Ok
          ( st = K.Ok && Msg.get_u8 msg 4 = 1,
            Printf.sprintf "send=%s reader-status=%d reader-data=%d"
              (K.status_to_string st) (Msg.get_u8 msg 5) (Msg.get_u8 msg 6) ));
    (* Forward across three hosts; the reply bypasses the dispatcher. *)
    exchange "forward" "dispatcher"
      (fun _ msg -> Msg.set_u8 msg 4 30)
      (fun _ msg -> Msg.get_u8 msg 4 = 37);
    (* Cached write-back Io: GetPid broadcast, open, dirty one block,
       flush on close. *)
    call "io-writeback" (fun e ->
        let ( let* ) = Result.bind in
        let* conn = Vfs.Client.connect e.k () in
        let cache = cache Vfs.Cache.Write_back e in
        let* f = Io.open_file (Io.make ~cache conn) "data" in
        let* n = Io.write f ~off:(io_block * bs) (Bytes.copy io_expect) in
        let* () = Io.close f in
        Ok (n = bs, "ok"));
  ]

let net =
  Spec
    {
      network = Hosts 3;
      kernel_config = fast_config;
      fs = [ { fs_host = 2; journal_blocks = 0; files = [ ("data", 4 * bs) ] } ];
      target = Nothing;
      max_events = 2_000_000;
      setup = net_setup;
      clients = [ client 1 "client" net_script ];
      audit =
        (fun w st run ->
          (* Audit the server's file system directly, not through the
             client's cache, so a lost or doubly-applied write cannot
             hide. *)
          let fs = List.hd w.fs in
          let file_ok = ref false in
          if run.completed then
            audit_proc w (fun () ->
                file_ok :=
                  match Vfs.Fs.lookup fs "data" with
                  | None -> false
                  | Some inum ->
                      Vfs.Fs.read fs ~inum ~pos:(io_block * bs) ~len:bs
                      = Ok io_expect);
          {
            ledger = List.map (fun (name, n) -> (name, !n)) st.counts;
            pages_written = Vfs.Server.pages_written st.server;
            file_ok = !file_ok;
          });
    }

(* --- crash: a restartable server over a journaled file system; the
   client overwrites three blocks through a write-through cache with
   session recovery on. *)

let crash =
  let file = "data" in
  Spec
    {
      network = Hosts 2;
      kernel_config = fast_config;
      fs =
        [
          {
            fs_host = 2;
            journal_blocks = 64;
            files = [ (file, file_blocks * bs) ];
          };
        ];
      target = Server 2;
      max_events = 4_000_000;
      setup =
        (fun w ->
          ignore
            (Vfs.Server.start (kernel w 2) (List.hd w.fs) ~restartable:true
               ()));
      clients =
        [
          client 1 "crash-client"
            ~session:(fun e ->
              let cache = cache Vfs.Cache.Write_through e in
              io_session
                (fun conn -> Io.open_file (Io.make ~cache ~recover:true conn))
                e)
            ((Connect { op = "open"; file; tries = 30; forget = None }
             :: Read { op = "read"; file; block = 0; expect = old_block 0 }
             :: overwrite file [ 1; 2; 3 ])
            @ [ Close { op = "close"; file } ]);
        ];
      audit =
        (fun w () run ->
          audit_recovery w run ~recover:(K.is_down (kernel w 2)) ~file);
    }

(* --- shared: two lease clients on hosts 1 and 3 take turns mutating a
   three-block file in lockstep; every read names the bytes of the
   latest acknowledged write. *)

type shared = {
  stale : string list;
  lease_reopen_rpcs : int option;
  breaks_a : int;
  breaks_b : int;
  leases_granted : int;
  leases_broken : int;
  leases_expired : int;
}

type shared_state = {
  lease_server : Vfs.Server.t;
  io_a : Io.t option ref;
  io_b : Io.t option ref;
  mutable lease_from : int option;  (* requests served, if the lease held *)
  mutable reopen_rpcs : int option;
}

(* The lease term the workload's server grants.  Much longer than any
   depth<=2 run (including crash recovery detours), so mid-run lease
   {e expiry} never occurs and every coherence transition in the sweep
   is driven by explicit Break_lease callbacks or failover recovery,
   the two paths whose correctness the no-stale-read invariant
   certifies.  Expiry-vs-suspicion behaviour is covered by unit tests
   instead, where time is under the test's control. *)
let lease_term_ns = Vsim.Time.ms 2000

(* Distinct per-phase block images so a stale read is identifiable
   byte-for-byte: block [b]'s initial content is the testbed pattern;
   each scripted write installs its own pattern offset. *)
let b_writes_0 = block_of (fun i -> 11000 + i)
let a_writes_1 = block_of (fun i -> 12000 + i)
let b_writes_2 = block_of (fun i -> 13000 + i)

(* A lease session that keeps its [Io.t] in [slot] once an open sticks. *)
let lease_session slot (e : shared_state env) =
  let cache = cache Vfs.Cache.Write_through e in
  io_session
    (fun conn ->
      let io = Io.make ~cache ~recover:true ~lease:true conn in
      fun name ->
        let r = Io.open_file io name in
        if Result.is_ok r then slot e.st := Some io;
        r)
    e

let shared =
  let file = "shared" in
  let read op block expect = Read { op; file; block; expect } in
  let write op block data = Write { op; file; block; data } in
  let await op phase = Await { op; phase } in
  let requests (e : shared_state env) =
    Vfs.Server.requests_served e.st.lease_server
  in
  let breaks slot = Option.fold ~none:0 ~some:Io.breaks_received !slot in
  Spec
    {
      network = Hosts 3;
      kernel_config = fast_config;
      fs = [ { fs_host = 2; journal_blocks = 64; files = [ (file, 3 * bs) ] } ];
      target = Server 2;
      max_events = 6_000_000;
      setup =
        (fun w ->
          {
            lease_server =
              Vfs.Server.start (kernel w 2) (List.hd w.fs)
                ~config:{ Vfs.Server.default_config with lease_term_ns }
                ~restartable:true ();
            io_a = ref None;
            io_b = ref None;
            lease_from = None;
            reopen_rpcs = None;
          });
      clients =
        [
          client 1 "client-a" ~session:(lease_session (fun st -> st.io_a))
            [
              Connect { op = "a:open"; file; tries = 30; forget = None };
              read "a:read0" 0 (old_block 0);
              Close { op = "a:close0"; file };
              (* Zero-RPC reopen: under a still-valid lease the parked
                 handle, cached blocks and version are reused as-is.
                 The server's request counter is the witness.  When
                 the lease did not survive to this point (a crash
                 schedule already hit), the reopen is an ordinary
                 revalidating open and the measurement is skipped. *)
              Do
                (fun e ->
                  e.st.lease_from <-
                    (if Io.file_lease_valid (e.file file) then
                       Some (requests e)
                     else None));
              Open { op = "a:reopen"; file };
              Do
                (fun e ->
                  e.st.reopen_rpcs <-
                    Option.map (fun n -> requests e - n) e.st.lease_from);
              read "a:read0'" 0 (old_block 0);
              Advance 1;
              await "a:await2" 2;
              (* B's write to block 0 is acknowledged; the break
                 callback must already have purged our copy. *)
              read "a:read0-after-b" 0 b_writes_0;
              write "a:write1" 1 a_writes_1;
              Advance 3;
              await "a:await4" 4;
              read "a:read2" 2 b_writes_2;
              Close { op = "a:close"; file };
            ];
          client 3 "client-b" ~session:(lease_session (fun st -> st.io_b))
            [
              await "b:await1" 1;
              Connect { op = "b:open"; file; tries = 30; forget = None };
              write "b:write0" 0 b_writes_0;
              Advance 2;
              await "b:await3" 3;
              (* A's write to block 1 is acknowledged; our lease on
                 the file was broken before that acknowledgement. *)
              read "b:read1" 1 a_writes_1;
              write "b:write2" 2 b_writes_2;
              Close { op = "b:close"; file };
              Advance 4;
            ];
        ];
      audit =
        (fun _ st run ->
          let server = st.lease_server in
          {
            stale = run.stale;
            lease_reopen_rpcs = st.reopen_rpcs;
            breaks_a = breaks st.io_a;
            breaks_b = breaks st.io_b;
            leases_granted = Vfs.Server.leases_granted server;
            leases_broken = Vfs.Server.leases_broken server;
            leases_expired = Vfs.Server.leases_expired server;
          });
    }

(* --- inet: a client alone on a 3 Mb segment, an echo service and a file
   server on a 10 Mb one, every exchange crossing the gateway. *)

let echo_lid = 9

let inet =
  let file = "inet-data" in
  let fresh = block_of (fun i -> 9000 + i) in
  Spec
    {
      network =
        Segments
          [
            { medium_config = Vnet.Medium.config_3mb; seg_hosts = 1 };
            { medium_config = Vnet.Medium.config_10mb; seg_hosts = 1 };
          ];
      (* Enough retries to ride out a full gateway outage: 12 x 10 ms of
         retransmission against a 50 ms default outage. *)
      kernel_config = { fast_config with K.max_retries = 12 };
      fs = [ { fs_host = 2; journal_blocks = 0; files = [ (file, 4 * bs) ] } ];
      target = Gateway;
      max_events = 4_000_000;
      setup =
        (fun w ->
          let k2 = kernel w 2 in
          ignore (Vfs.Server.start k2 (List.hd w.fs) ());
          ignore
            (serve k2 "echo" ~count:ignore (bump k2 ~add:1) ~init:(fun pid ->
                 K.set_pid k2 ~logical_id:echo_lid pid K.Any));
          ref Vkernel.Pid.nil);
      clients =
        [
          client 1 "inet-client"
            ~session:(io_session (fun conn -> Io.open_file (Io.make conn)))
            [
              call "getpid" (fun e ->
                  match K.get_pid e.k ~logical_id:echo_lid K.Any with
                  | None -> Ok (false, "no echo service")
                  | Some pid ->
                      e.st := pid;
                      Ok (true, "ok"));
              call "echo" ~needs:"getpid" (fun e ->
                  let msg = Msg.create () in
                  Msg.set_u8 msg 4 41;
                  match K.send e.k msg !(e.st) with
                  | K.Ok -> Ok (Msg.get_u8 msg 4 = 42, "cross-segment echo")
                  | st -> Ok (false, K.status_to_string st));
              Connect { op = "open"; file; tries = 1; forget = None };
              Read { op = "read"; file; block = 0; expect = old_block 0 };
              Write { op = "write"; file; block = 1; data = fresh };
              Read { op = "readback"; file; block = 1; expect = fresh };
              Close { op = "close"; file };
            ];
        ];
      audit = (fun w _ _ -> Vnet.Gateway.stats (Option.get w.gateway));
    }

(* --- failover: host 1 the client, host 2 the primary of shard A over a
   journaled file system, host 3 a standby sharing shard A's disk, host
   4 the primary of shard B.  The client routes by name prefix with
   session recovery on, overwrites blocks of shard A and reads both.

   Crashes are crash-STOP: a restarted primary next to a standby that
   already ran [Fs.recover] would be two live servers on one disk, and
   the simulation has no fencing (doc/INTERNETWORK.md). *)

type failover = { took_over : bool; probes : int; recovery : recovery }

let failover =
  let file_a = "a/data" and file_b = "b/data" in
  let shard_a = Vfs.Names.shard_logical_id 0 in
  let shard_b = Vfs.Names.shard_logical_id 1 in
  let server_for lid =
    { Vfs.Server.default_config with Vfs.Server.register_id = Some lid }
  in
  let names =
    [
      { Vfs.Names.prefix = "a/"; logical_id = shard_a };
      { Vfs.Names.prefix = "b/"; logical_id = shard_b };
    ]
  in
  let read op file = Read { op; file; block = 0; expect = old_block 0 } in
  Spec
    {
      network = Hosts 4;
      kernel_config = fast_config;
      fs =
        [
          {
            fs_host = 2;
            journal_blocks = 64;
            files = [ (file_a, file_blocks * bs) ];
          };
          { fs_host = 4; journal_blocks = 0; files = [ (file_b, 2 * bs) ] };
        ];
      target = Server_stop 2;
      max_events = 4_000_000;
      setup =
        (fun w ->
          let start i fs lid =
            ignore
              (Vfs.Server.start (kernel w i) fs ~config:(server_for lid) ())
          in
          let fs_a = List.hd w.fs in
          start 2 fs_a shard_a;
          start 4 (List.nth w.fs 1) shard_b;
          Vfs.Replica.standby (kernel w 3) fs_a ~logical_id:shard_a
            ~server_config:(server_for shard_a)
            ~heartbeat_ns:(Vsim.Time.ms 15) ());
      clients =
        [
          (* Each try starts a fresh sharded client (the stale one may
             hold a connection to the dead incarnation), and [forget]
             drops the cached GetPid binding so re-resolution goes back
             on the wire and finds whichever host serves the shard now. *)
          client 1 "failover-client"
            ~session:(fun e () ->
              let mk_cache () = Some (cache Vfs.Cache.Write_through e) in
              Ok
                (Vfs.Client.Sharded.open_file
                   (Vfs.Client.Sharded.make ~mk_cache ~recover:true e.k
                      (Vfs.Names.make names))))
            ([
               Connect
                 { op = "open-a"; file = file_a; tries = 40; forget = Some shard_a };
               read "read-a" file_a;
               Open { op = "open-b"; file = file_b };
               read "read-b" file_b;
             ]
            @ overwrite file_a [ 1; 2 ]
            @ [
                Close { op = "close-b"; file = file_b };
                Close { op = "close-a"; file = file_a };
                (* Quiesce the run: the standby's heartbeat loop would
                   otherwise probe forever. *)
                Do (fun e -> Vfs.Replica.stop e.st);
              ]);
        ];
      audit =
        (fun w replica run ->
          let took_over = Vfs.Replica.took_over replica in
          {
            took_over;
            probes = Vfs.Replica.probes replica;
            recovery =
              audit_recovery w run ~file:file_a
                ~recover:(K.is_down (kernel w 2) && not took_over);
          });
    }
