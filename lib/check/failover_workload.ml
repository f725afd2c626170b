(* The failover checker workload: a sharded file service where one
   shard's primary can crash-stop and a standby replica must take the
   shard over with no acked write lost.

   Four hosts on one segment: host 1 the client, host 2 the primary of
   shard A (journaled filesystem), host 3 a standby sharing shard A's
   disk ({!Vfs.Replica}), host 4 the primary of shard B.  The client
   resolves shards through a {!Vfs.Names} map and drives both shards
   through {!Vfs.Client.Sharded} with session recovery on.

   Scripted crashes hit host 2 only, and they are crash-STOP — the
   failover scenario enumerates crash-stop points only and the
   restart hook here is deliberately a no-op.  A restarted primary plus
   a standby that already ran [Fs.recover] would be two live servers on
   one disk; the simulation has no fencing, so the failover contract is
   crash-stop only (doc/INTERNETWORK.md spells this out). *)

module K = Vkernel.Kernel
module Io = Vfs.Client.Io
module Sharded = Vfs.Client.Sharded

type op_result = Workload.op_result = { op : string; ok : bool; detail : string }

type report = {
  completed : bool;
  events : int;
  frames : int;
  crashes : int;
  restarts_ignored : int;
  took_over : bool;
  probes : int;
  ops : op_result list;
  acked : int list;  (** shard-A blocks whose write the client saw acked *)
  acked_lost : int list;
  torn : int list;
  fsck : string list;
  kernels : Workload.kernel_probe list;
      (** live hosts only: a crash-stopped host's tables are not
          required to drain *)
  medium : Vnet.Medium.stats;
}

let file_a = "a/data"
let file_b = "b/data"
let shard_a = Vfs.Names.shard_logical_id 0
let shard_b = Vfs.Names.shard_logical_id 1
let blocks_a = 4
let written_blocks = [ 1; 2 ]
let bs = Vfs.Fs.block_size
let journal_blocks = 64

let old_content b =
  Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte ((b * bs) + i))

let new_content b =
  Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte (7000 + (b * bs) + i))

(* open a, read a, open b, read b, write@1, write@2, readback, close b,
   close a *)
let op_count = 9
let default_max_events = 4_000_000

let names () =
  Vfs.Names.make
    [
      { Vfs.Names.prefix = "a/"; logical_id = shard_a };
      { Vfs.Names.prefix = "b/"; logical_id = shard_b };
    ]

let run ?(fault = Vnet.Fault.none) ?(max_events = default_max_events)
    ?seed () =
  let tb =
    Vworkload.Testbed.create ?seed ~hosts:4
      ~kernel_config:Workload.fast_config ()
  in
  let eng = tb.Vworkload.Testbed.eng in
  let medium = tb.Vworkload.Testbed.medium in
  let kernel i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel in
  let k1 = kernel 1 and k2 = kernel 2 and k3 = kernel 3 and k4 = kernel 4 in
  let fs_a =
    Vworkload.Testbed.make_test_fs tb ~host:2 ~journal_blocks
      ~files:[ (file_a, blocks_a * bs) ]
      ()
  in
  let fs_b =
    Vworkload.Testbed.make_test_fs tb ~host:4 ~files:[ (file_b, 2 * bs) ] ()
  in
  let server_for lid =
    { Vfs.Server.default_config with Vfs.Server.register_id = Some lid }
  in
  let (_ : Vfs.Server.t) =
    Vfs.Server.start k2 fs_a ~config:(server_for shard_a) ()
  in
  let (_ : Vfs.Server.t) =
    Vfs.Server.start k4 fs_b ~config:(server_for shard_b) ()
  in
  let replica =
    Vfs.Replica.standby k3 fs_a ~logical_id:shard_a
      ~server_config:(server_for shard_a)
      ~heartbeat_ns:(Vsim.Time.ms 15) ()
  in
  let crashes = ref 0 and restarts_ignored = ref 0 in
  Vnet.Medium.set_host_handler medium
    ~crash:(fun () ->
      incr crashes;
      K.crash k2)
    ~restart:(fun () ->
      (* Crash-stop: the primary never returns (no fencing, see above). *)
      incr restarts_ignored);
  let ops = ref [] in
  let record op ok detail = ops := { op; ok; detail } :: !ops in
  let acked = ref [] in
  let client_done = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"failover-client" (fun _ ->
        (* The crash can land before the first open sticks — before any
           [Io.file] exists to carry session recovery.  The prologue
           retries from a fresh sharded client each time (the stale one
           may hold a connection to the dead incarnation), dropping the
           cached GetPid binding so re-resolution goes back on the wire
           and finds whichever host serves the shard now. *)
        let mk_sharded () =
          Sharded.make
            ~mk_cache:(fun () ->
              Some
                (Vfs.Cache.create eng ~host:1
                   {
                     Vfs.Cache.capacity_blocks = 8;
                     policy = Vfs.Cache.Write_through;
                   }))
            ~recover:true k1 (names ())
        in
        let open_tries = 40 in
        let rec open_loop n last =
          if n = 0 then Error last
          else begin
            if n < open_tries then begin
              K.forget_pid k1 ~logical_id:shard_a;
              Vsim.Proc.sleep (Vsim.Time.ms 20)
            end;
            let sh = mk_sharded () in
            match Sharded.open_file sh file_a with
            | Ok f -> Ok (sh, f)
            | Error e -> open_loop (n - 1) (Vfs.Client.error_to_string e)
          end
        in
        match open_loop open_tries "never attempted" with
        | Error detail -> record "open-a" false detail
        | Ok (sh, fa) -> (
            record "open-a" true "ok";
            (match Io.read fa ~off:0 ~len:bs with
            | Ok got ->
                record "read-a" (Bytes.equal got (old_content 0)) "data check"
            | Error e -> record "read-a" false (Vfs.Client.error_to_string e));
            let fb =
              match Sharded.open_file sh file_b with
              | Ok fb ->
                  record "open-b" true "ok";
                  Some fb
              | Error e ->
                  record "open-b" false (Vfs.Client.error_to_string e);
                  None
            in
            (match fb with
            | Some fb -> (
                match Io.read fb ~off:0 ~len:bs with
                | Ok got ->
                    record "read-b"
                      (Bytes.equal got (old_content 0))
                      "data check"
                | Error e ->
                    record "read-b" false (Vfs.Client.error_to_string e))
            | None -> ());
            List.iter
              (fun b ->
                let op = Printf.sprintf "write@%d" b in
                match Io.write fa ~off:(b * bs) (new_content b) with
                | Ok n when n = bs ->
                    acked := b :: !acked;
                    record op true "ok"
                | Ok n -> record op false (Printf.sprintf "short write %d" n)
                | Error e -> record op false (Vfs.Client.error_to_string e))
              written_blocks;
            (match Io.read fa ~off:bs ~len:(2 * bs) with
            | Ok got ->
                let expect =
                  Bytes.concat Bytes.empty (List.map new_content written_blocks)
                in
                record "readback" (Bytes.equal got expect) "data check"
            | Error e -> record "readback" false (Vfs.Client.error_to_string e));
            (match fb with
            | Some fb -> (
                match Io.close fb with
                | Ok () -> record "close-b" true "ok"
                | Error e ->
                    record "close-b" false (Vfs.Client.error_to_string e))
            | None -> ());
            (match Io.close fa with
            | Ok () -> record "close-a" true "ok"
            | Error e -> record "close-a" false (Vfs.Client.error_to_string e));
            (* Quiesce the run: the standby's heartbeat loop would
               otherwise probe forever. *)
            Vfs.Replica.stop replica;
            client_done := true))
  in
  Vnet.Medium.set_fault medium fault;
  let quiescent, events =
    match Vsim.Engine.run_bounded ~max_events eng with
    | `Quiescent n -> (true, n)
    | `Exhausted n -> (false, n)
  in
  let completed = quiescent && !client_done in
  let acked = List.rev !acked in
  (* Post-mortem audit straight at shard A's filesystem.  If the primary
     died and no standby recovered the disk, recover it here (carrying
     the disk to another machine). *)
  let acked_lost = ref [] and torn = ref [] in
  let fsck = ref [] in
  if quiescent then
    Vworkload.Testbed.run_proc tb ~name:"audit" (fun () ->
        if K.is_down k2 && not (Vfs.Replica.took_over replica) then
          Vfs.Fs.recover fs_a;
        (match Vfs.Fs.lookup fs_a file_a with
        | None -> fsck := [ "audit: shard-A file vanished" ]
        | Some inum ->
            List.iter
              (fun b ->
                match Vfs.Fs.read fs_a ~inum ~pos:(b * bs) ~len:bs with
                | Error _ -> torn := b :: !torn
                | Ok got ->
                    let is_new = Bytes.equal got (new_content b) in
                    let is_old = Bytes.equal got (old_content b) in
                    if (not is_new) && not is_old then torn := b :: !torn;
                    if List.mem b acked && not is_new then
                      acked_lost := b :: !acked_lost)
              (List.init blocks_a Fun.id));
        fsck := !fsck @ Vfs.Fs.check fs_a @ Vfs.Fs.check fs_b);
  let mstats = Vnet.Medium.stats medium in
  let probe i k =
    { Workload.host = i; tables = K.table_counts k; kstats = K.stats k }
  in
  {
    completed;
    events;
    frames = mstats.Vnet.Medium.attempted - mstats.Vnet.Medium.excessive;
    crashes = !crashes;
    restarts_ignored = !restarts_ignored;
    took_over = Vfs.Replica.took_over replica;
    probes = Vfs.Replica.probes replica;
    ops = List.rev !ops;
    acked;
    acked_lost = List.rev !acked_lost;
    torn = List.rev !torn;
    fsck = !fsck;
    kernels =
      List.filter_map
        (fun (i, k) -> if K.is_down k then None else Some (probe i k))
        [ (1, k1); (2, k2); (3, k3); (4, k4) ];
    medium = mstats;
  }
