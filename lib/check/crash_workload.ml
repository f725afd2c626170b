module K = Vkernel.Kernel
module Io = Vfs.Client.Io

type op_result = Workload.op_result = { op : string; ok : bool; detail : string }

type report = {
  completed : bool;
  events : int;
  frames : int;
  crashes : int;
  restarts : int;
  ops : op_result list;
  acked : int list;
  acked_lost : int list;
  torn : int list;
  fsck : string list;
  kernels : Workload.kernel_probe list;
  medium : Vnet.Medium.stats;
}

let file_name = "data"
let file_blocks = 4
let written_blocks = [ 1; 2; 3 ]
let bs = Vfs.Fs.block_size
let journal_blocks = 64

(* Old content comes from the testbed's pattern; new content is a
   distinct per-block pattern so a torn block — neither all-old nor
   all-new — is detectable byte-for-byte. *)
let old_content b =
  Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte ((b * bs) + i))

let new_content b =
  Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte (7000 + (b * bs) + i))

let op_count = 7 (* connect+open, read, 3 writes, readback, close *)
let default_max_events = 4_000_000

let run ?(fault = Vnet.Fault.none) ?(max_events = default_max_events)
    ?(trace = false) ?seed () =
  let tb =
    Vworkload.Testbed.create ?seed ~hosts:2
      ~kernel_config:Workload.fast_config ()
  in
  let eng = tb.Vworkload.Testbed.eng in
  if trace then Vsim.Trace.to_stderr eng;
  let medium = tb.Vworkload.Testbed.medium in
  let kernel i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel in
  let k1 = kernel 1 and k2 = kernel 2 in
  let fs =
    Vworkload.Testbed.make_test_fs tb ~host:2 ~journal_blocks
      ~files:[ (file_name, file_blocks * bs) ]
      ()
  in
  let (_ : Vfs.Server.t) = Vfs.Server.start k2 fs ~restartable:true () in
  let crashes = ref 0 and restarts = ref 0 in
  Vnet.Medium.set_host_handler medium
    ~crash:(fun () ->
      incr crashes;
      K.crash k2)
    ~restart:(fun () ->
      incr restarts;
      K.restart k2);
  let ops = ref [] in
  let record op ok detail = ops := { op; ok; detail } :: !ops in
  let acked = ref [] in
  let client_done = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"crash-client" (fun _ ->
        (* The crash can land anywhere, including under the very first
           GetPid broadcast or the open itself — before any [Io.file]
           exists to carry the recovery loop.  So the prologue is its
           own bounded retry: reconnect from scratch until the open
           sticks. *)
        let cache =
          Vfs.Cache.create eng ~host:1
            { Vfs.Cache.capacity_blocks = 8; policy = Vfs.Cache.Write_through }
        in
        let open_tries = 30 in
        let rec open_loop n last =
          if n = 0 then Error last
          else begin
            if n < open_tries then Vsim.Proc.sleep (Vsim.Time.ms 20);
            match Vfs.Client.connect k1 () with
            | Error e -> open_loop (n - 1) (Vfs.Client.error_to_string e)
            | Ok conn -> (
                let io = Io.make ~cache ~recover:true conn in
                match Io.open_file io file_name with
                | Ok f -> Ok f
                | Error e -> open_loop (n - 1) (Vfs.Client.error_to_string e))
          end
        in
        match open_loop open_tries "never attempted" with
        | Error detail -> record "open" false detail
        | Ok f -> (
            record "open" true "ok";
            (match Io.read f ~off:0 ~len:bs with
            | Ok got ->
                record "read" (Bytes.equal got (old_content 0)) "data check"
            | Error e -> record "read" false (Vfs.Client.error_to_string e));
            List.iter
              (fun b ->
                let op = Printf.sprintf "write@%d" b in
                match Io.write f ~off:(b * bs) (new_content b) with
                | Ok n when n = bs ->
                    acked := b :: !acked;
                    record op true "ok"
                | Ok n -> record op false (Printf.sprintf "short write %d" n)
                | Error e -> record op false (Vfs.Client.error_to_string e))
              written_blocks;
            (match Io.read f ~off:bs ~len:(3 * bs) with
            | Ok got ->
                let expect =
                  Bytes.concat Bytes.empty (List.map new_content written_blocks)
                in
                record "readback" (Bytes.equal got expect) "data check"
            | Error e -> record "readback" false (Vfs.Client.error_to_string e));
            (match Io.close f with
            | Ok () -> record "close" true "ok"
            | Error e -> record "close" false (Vfs.Client.error_to_string e));
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
  (* Post-mortem audit, straight at the file system: what does the disk
     actually hold?  If the host died and never came back, run recovery
     here first — the model of carrying the disk to another machine. *)
  let acked_lost = ref [] and torn = ref [] in
  let fsck = ref [] in
  if quiescent then
    Vworkload.Testbed.run_proc tb ~name:"audit" (fun () ->
        if K.is_down k2 then Vfs.Fs.recover fs;
        (match Vfs.Fs.lookup fs file_name with
        | None -> fsck := [ "audit: file vanished" ]
        | Some inum ->
            List.iter
              (fun b ->
                match Vfs.Fs.read fs ~inum ~pos:(b * bs) ~len:bs with
                | Error e ->
                    torn := b :: !torn;
                    ignore e
                | Ok got ->
                    let is_new = Bytes.equal got (new_content b) in
                    let is_old = Bytes.equal got (old_content b) in
                    if (not is_new) && not is_old then torn := b :: !torn;
                    if List.mem b acked && not is_new then
                      acked_lost := b :: !acked_lost)
              (List.init file_blocks Fun.id));
        fsck := !fsck @ Vfs.Fs.check fs);
  let mstats = Vnet.Medium.stats medium in
  {
    completed;
    events;
    frames = mstats.Vnet.Medium.attempted - mstats.Vnet.Medium.excessive;
    crashes = !crashes;
    restarts = !restarts;
    ops = List.rev !ops;
    acked;
    acked_lost = List.rev !acked_lost;
    torn = List.rev !torn;
    fsck = !fsck;
    kernels =
      List.map
        (fun i ->
          let k = kernel i in
          {
            Workload.host = i;
            tables = K.table_counts k;
            kstats = K.stats k;
          })
        [ 1; 2 ];
    medium = mstats;
  }
