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
  stale : string list;
  lease_reopen_rpcs : int option;
  breaks_a : int;
  breaks_b : int;
  leases_granted : int;
  leases_broken : int;
  leases_expired : int;
  kernels : Workload.kernel_probe list;
  medium : Vnet.Medium.stats;
}

let file_name = "shared"
let file_blocks = 3
let bs = Vfs.Fs.block_size
let journal_blocks = 64

(* Distinct per-phase block images so a stale read is identifiable
   byte-for-byte: block [b]'s initial content is the testbed pattern;
   each scripted write installs its own pattern offset. *)
let initial b =
  Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte ((b * bs) + i))

let b_writes_0 = Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte (11000 + i))
let a_writes_1 = Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte (12000 + i))
let b_writes_2 = Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte (13000 + i))

(* a: open, read0, close, reopen, read0', read0-after-b, write1, read2,
   close; b: open, write0, read1, write2, close. *)
let op_count = 14
let default_max_events = 6_000_000

(* The lease term the workload's server grants.  Much longer than any
   depth<=2 run (including crash recovery detours), so mid-run lease
   {e expiry} never occurs and every coherence transition in the sweep
   is driven by explicit Break_lease callbacks or failover recovery —
   the two paths whose correctness the no-stale-read invariant
   certifies.  Expiry-vs-suspicion behaviour is covered by unit tests
   instead, where time is under the test's control. *)
let lease_term_ns = Vsim.Time.ms 2000

let run ?(fault = Vnet.Fault.none) ?(max_events = default_max_events)
    ?(trace = false) ?seed () =
  let tb =
    Vworkload.Testbed.create ?seed ~hosts:3
      ~kernel_config:Workload.fast_config ()
  in
  let eng = tb.Vworkload.Testbed.eng in
  if trace then Vsim.Trace.to_stderr eng;
  let medium = tb.Vworkload.Testbed.medium in
  let kernel i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel in
  let k1 = kernel 1 and k2 = kernel 2 and k3 = kernel 3 in
  let fs =
    Vworkload.Testbed.make_test_fs tb ~host:2 ~journal_blocks
      ~files:[ (file_name, file_blocks * bs) ]
      ()
  in
  let server =
    Vfs.Server.start k2 fs
      ~config:{ Vfs.Server.default_config with lease_term_ns }
      ~restartable:true ()
  in
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
  let stale = ref [] in
  let lease_reopen_rpcs = ref None in
  let io_a = ref None and io_b = ref None in
  (* Lockstep phase counter shared by the two client fibers (plain heap
     state, not IPC: the coordination channel must not add faultable
     frames of its own).  Each client sleep-polls for its next phase. *)
  let phase = ref 0 in
  let advance n = if n > !phase then phase := n in
  let await n =
    let rec go tries =
      if !phase >= n then true
      else if tries = 0 then false
      else begin
        Vsim.Proc.sleep (Vsim.Time.ms 1);
        go (tries - 1)
      end
    in
    go 5000
  in
  (* Opening can race the crash schedule before any [Io.file] exists to
     carry the recovery loop, so the prologue retries from scratch. *)
  let open_loop tag k io_slot =
    let cache =
      Vfs.Cache.create eng
        ~host:(K.host k)
        { Vfs.Cache.capacity_blocks = 8; policy = Vfs.Cache.Write_through }
    in
    let tries = 30 in
    let rec go n last =
      if n = 0 then Error last
      else begin
        if n < tries then Vsim.Proc.sleep (Vsim.Time.ms 20);
        match Vfs.Client.connect k () with
        | Error e -> go (n - 1) (Vfs.Client.error_to_string e)
        | Ok conn -> (
            let io = Io.make ~cache ~recover:true ~lease:true conn in
            match Io.open_file io file_name with
            | Ok f ->
                io_slot := Some io;
                Ok f
            | Error e -> go (n - 1) (Vfs.Client.error_to_string e))
      end
    in
    match go tries "never attempted" with
    | Ok f ->
        record (tag ^ ":open") true "ok";
        Some f
    | Error detail ->
        record (tag ^ ":open") false detail;
        None
  in
  let check_read tag f ~block expect =
    match Io.read f ~off:(block * bs) ~len:bs with
    | Error e ->
        record tag false (Vfs.Client.error_to_string e);
        stale := !stale @ [ tag ^ ": read failed" ]
    | Ok got ->
        let ok = Bytes.equal got expect in
        record tag ok "data check";
        if not ok then
          stale :=
            !stale
            @ [
                Printf.sprintf "%s: block %d does not hold the latest \
                                acknowledged write" tag block;
              ]
  in
  let do_write tag f ~block content =
    match Io.write f ~off:(block * bs) (Bytes.copy content) with
    | Ok n when n = bs ->
        record tag true "ok";
        true
    | Ok n ->
        record tag false (Printf.sprintf "short write %d" n);
        false
    | Error e ->
        record tag false (Vfs.Client.error_to_string e);
        false
  in
  let a_done = ref false and b_done = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"client-a" (fun _ ->
        (match open_loop "a" k1 io_a with
        | None -> ()
        | Some f ->
            check_read "a:read0" f ~block:0 (initial 0);
            (match Io.close f with
            | Ok () -> record "a:close0" true "ok"
            | Error e -> record "a:close0" false (Vfs.Client.error_to_string e));
            (* Zero-RPC reopen: under a still-valid lease the parked
               handle, cached blocks and version are reused as-is.  The
               server's request counter is the witness.  When the lease
               did not survive to this point (a crash schedule already
               hit), the reopen is an ordinary revalidating open and the
               measurement is skipped. *)
            let lease_held = Io.file_lease_valid f in
            let before = Vfs.Server.requests_served server in
            (match Io.open_file (Option.get !io_a) file_name with
            | Error e -> record "a:reopen" false (Vfs.Client.error_to_string e)
            | Ok f ->
                record "a:reopen" true "ok";
                if lease_held then
                  lease_reopen_rpcs :=
                    Some (Vfs.Server.requests_served server - before);
                check_read "a:read0'" f ~block:0 (initial 0);
                advance 1;
                if await 2 then begin
                  (* B's write to block 0 is acknowledged; the break
                     callback must already have purged our copy. *)
                  check_read "a:read0-after-b" f ~block:0 b_writes_0;
                  if do_write "a:write1" f ~block:1 a_writes_1 then ();
                  advance 3;
                  if await 4 then begin
                    check_read "a:read2" f ~block:2 b_writes_2;
                    (match Io.close f with
                    | Ok () -> record "a:close" true "ok"
                    | Error e ->
                        record "a:close" false (Vfs.Client.error_to_string e));
                    a_done := true
                  end
                  else record "a:await4" false "phase 4 never reached"
                end
                else record "a:await2" false "phase 2 never reached"));
        advance 5)
  in
  let (_ : Vkernel.Pid.t) =
    K.spawn k3 ~name:"client-b" (fun _ ->
        (if await 1 then begin
           match open_loop "b" k3 io_b with
           | None -> ()
           | Some f ->
               if do_write "b:write0" f ~block:0 b_writes_0 then ();
               advance 2;
               if await 3 then begin
                 (* A's write to block 1 is acknowledged; our lease on
                    the file was broken before that acknowledgement. *)
                 check_read "b:read1" f ~block:1 a_writes_1;
                 if do_write "b:write2" f ~block:2 b_writes_2 then ();
                 (match Io.close f with
                 | Ok () -> record "b:close" true "ok"
                 | Error e ->
                     record "b:close" false (Vfs.Client.error_to_string e));
                 b_done := true
               end
               else record "b:await3" false "phase 3 never reached"
         end
         else record "b:await1" false "phase 1 never reached");
        advance 4)
  in
  Vnet.Medium.set_fault medium fault;
  let quiescent, events =
    match Vsim.Engine.run_bounded ~max_events eng with
    | `Quiescent n -> (true, n)
    | `Exhausted n -> (false, n)
  in
  let completed = quiescent && !a_done && !b_done in
  let mstats = Vnet.Medium.stats medium in
  let breaks_of slot =
    match !slot with None -> 0 | Some io -> Io.breaks_received io
  in
  {
    completed;
    events;
    frames = mstats.Vnet.Medium.attempted - mstats.Vnet.Medium.excessive;
    crashes = !crashes;
    restarts = !restarts;
    ops = List.rev !ops;
    stale = !stale;
    lease_reopen_rpcs = !lease_reopen_rpcs;
    breaks_a = breaks_of io_a;
    breaks_b = breaks_of io_b;
    leases_granted = Vfs.Server.leases_granted server;
    leases_broken = Vfs.Server.leases_broken server;
    leases_expired = Vfs.Server.leases_expired server;
    kernels =
      List.map
        (fun i ->
          let k = kernel i in
          {
            Workload.host = i;
            tables = K.table_counts k;
            kstats = K.stats k;
          })
        [ 1; 2; 3 ];
    medium = mstats;
  }
