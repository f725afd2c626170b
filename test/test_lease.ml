(* Server-granted leases with callback invalidation (doc/LEASES.md):
   grant/refresh, break-before-ack, expiry without callback, the
   Gray-Cheriton wait-out for unreachable holders, the zero-RPC reopen
   fast path, the one-Stat revalidation after a lapse, the post-restart
   grace period, versions that outlive a restart, and the two-client
   coherence workload the sweep drives. *)

module K = Vkernel.Kernel
module Io = Vfs.Client.Io
module Schedule = Vcheck.Schedule
module Checker = Vcheck.Checker

module TB = Vworkload.Testbed
let now tb = Vsim.Engine.now tb.Vworkload.Testbed.eng

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "client: %s" (Vfs.Client.error_to_string e)

(* Server on host 1 (journaled, restartable, configurable term); client
   hosts 2 and 3.  The fast kernel config keeps retransmission timing in
   the same range the vcheck workloads use. *)
let rig ?(lease_term_ns = Vsim.Time.ms 200) ?(files = [ ("data", 8 * 512) ])
    () =
  let tb =
    Util.testbed ~hosts:3 ~kernel_config:Vcheck.Workload.fast_config ()
  in
  let fs = Vworkload.Testbed.make_test_fs tb ~journal_blocks:64 ~files () in
  let server =
    Vfs.Server.start (TB.kernel tb 1) fs
      ~config:{ Vfs.Server.default_config with lease_term_ns }
      ~restartable:true ()
  in
  (tb, fs, server)

let make_io ?(recover = false) ?(lease = true) tb ~host =
  let k = TB.kernel tb host in
  let conn = get (Vfs.Client.connect k ()) in
  let cache =
    Vfs.Cache.create tb.Vworkload.Testbed.eng ~host
      { Vfs.Cache.capacity_blocks = 8; policy = Vfs.Cache.Write_through }
  in
  (Io.make ~cache ~recover ~lease conn, cache)

let expect_block b = Bytes.init 512 (fun i -> Util.pattern ((b * 512) + i))

let inum_of fs =
  match Vfs.Fs.lookup fs "data" with
  | Some i -> i
  | None -> Alcotest.fail "data file missing"

(* Remote writer through the plain stubs: no cache, no lease. *)
let stub_write tb ~host ~block fill =
  let k = TB.kernel tb host in
  let mem = K.my_memory k in
  let conn = get (Vfs.Client.connect k ()) in
  let h = get (Vfs.Client.open_file conn "data") in
  Vkernel.Mem.write mem ~pos:0 (Bytes.make 512 fill);
  let (_ : int) =
    get (Vfs.Client.write_page conn h ~block ~buf:0 ~count:512)
  in
  get (Vfs.Client.close_file conn h)

(* Grant on open, refresh on read: one holder, counted once, valid on
   the client; a lease-less client gets nothing. *)
let test_grant () =
  let tb, fs, server = rig () in
  let inum = inum_of fs in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, _ = make_io tb ~host:2 in
      Alcotest.(check bool)
        "callback fiber spawned" false
        (Vkernel.Pid.equal (Io.callback_pid io) Vkernel.Pid.nil);
      let f = get (Io.open_file io "data") in
      Alcotest.(check bool) "lease valid after open" true
        (Io.file_lease_valid f);
      Alcotest.(check int) "one grant" 1 (Vfs.Server.leases_granted server);
      let (_ : Bytes.t) = get (Io.read f ~off:0 ~len:512) in
      Alcotest.(check int) "read refreshes, not re-grants" 1
        (Vfs.Server.leases_granted server);
      Alcotest.(check (list bool)) "exactly our callback holds it"
        [ true ]
        (List.map
           (fun p -> Vkernel.Pid.equal p (Io.callback_pid io))
           (Vfs.Server.lease_holders server ~inum));
      get (Io.close f));
  Util.run_as_process tb ~host:3 (fun _ ->
      let io, _ = make_io ~lease:false tb ~host:3 in
      Alcotest.(check bool) "no callback without ~lease" true
        (Vkernel.Pid.equal (Io.callback_pid io) Vkernel.Pid.nil);
      let f = get (Io.open_file io "data") in
      Alcotest.(check bool) "no lease without ~lease" false
        (Io.file_lease_valid f);
      get (Io.close f))

(* Break-before-ack: a conflicting write from another client voids the
   holder's lease and purges its cache before the writer's ack, so the
   holder's very next read observes the new bytes. *)
let test_break () =
  let tb, _, server = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, _ = make_io tb ~host:2 in
      let f = get (Io.open_file io "data") in
      Alcotest.(check bytes) "cached old content" (expect_block 0)
        (get (Io.read f ~off:0 ~len:512));
      let writer_done = ref false in
      let (_ : Vkernel.Pid.t) =
        K.spawn (TB.kernel tb 3) ~name:"writer" (fun _ ->
            stub_write tb ~host:3 ~block:0 'R';
            writer_done := true)
      in
      Vsim.Proc.sleep (Vsim.Time.ms 100);
      Alcotest.(check bool) "writer acked" true !writer_done;
      Alcotest.(check int) "one break callback" 1 (Io.breaks_received io);
      Alcotest.(check int) "server counted it" 1
        (Vfs.Server.leases_broken server);
      Alcotest.(check bool) "lease voided" false (Io.file_lease_valid f);
      Alcotest.(check bytes) "next read sees the write, no staleness"
        (Bytes.make 512 'R')
        (get (Io.read f ~off:0 ~len:512));
      Alcotest.(check bool) "refetch re-leased" true (Io.file_lease_valid f);
      get (Io.close f))

(* Expiry: past its term the lease dies by clock on both sides — the
   server drops the holder without a callback, and the client's first
   touch afterwards asks for the file's version, which exposes the write
   it missed, so a post-expiry read refetches. *)
let test_expiry () =
  let tb, _, server = rig ~lease_term_ns:(Vsim.Time.ms 5) () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, cache = make_io tb ~host:2 in
      let f = get (Io.open_file io "data") in
      Alcotest.(check bytes) "cached under lease" (expect_block 0)
        (get (Io.read f ~off:0 ~len:512));
      Vsim.Proc.sleep (Vsim.Time.ms 20);
      Alcotest.(check bool) "expired on the client" false
        (Io.file_lease_valid f);
      let writer_done = ref false in
      let (_ : Vkernel.Pid.t) =
        K.spawn (TB.kernel tb 3) ~name:"writer" (fun _ ->
            stub_write tb ~host:3 ~block:0 'R';
            writer_done := true)
      in
      Vsim.Proc.sleep (Vsim.Time.ms 100);
      Alcotest.(check bool) "writer acked" true !writer_done;
      Alcotest.(check int) "no callback for an expired lease" 0
        (Io.breaks_received io);
      Alcotest.(check bool) "server dropped it as expired" true
        (Vfs.Server.leases_expired server >= 1);
      let before = Vfs.Server.requests_served server in
      Alcotest.(check bytes) "post-expiry read refetches fresh bytes"
        (Bytes.make 512 'R')
        (get (Io.read f ~off:0 ~len:512));
      Alcotest.(check int) "the stale copy was invalidated, not served" 1
        (Vfs.Cache.stats cache).Vfs.Cache.invalidations;
      Alcotest.(check int) "one Stat, then the page read" 2
        (Vfs.Server.requests_served server - before);
      get (Io.close f))

(* An unreachable, unexpired holder cannot acknowledge a break; the
   server falls back to waiting out the remainder of its term before
   acking the conflicting write (the Gray-Cheriton guarantee). *)
let test_waitout () =
  let tb, _, server = rig ~lease_term_ns:(Vsim.Time.ms 200) () in
  let k2 = TB.kernel tb 2 in
  let granted_at = ref 0 in
  let a_ready = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"holder" (fun _ ->
        let io, _ = make_io tb ~host:2 in
        (* Anchor before the open: every server-side grant for this
           holder happens strictly after this instant, so its expiry is
           strictly after [granted_at + term]. *)
        granted_at := now tb;
        let f = get (Io.open_file io "data") in
        let (_ : Bytes.t) = get (Io.read f ~off:0 ~len:512) in
        a_ready := true;
        (* Park forever holding the lease; the crash takes us down. *)
        Vsim.Proc.sleep (Vsim.Time.ms 10_000))
  in
  Util.run_as_process tb ~host:3 (fun _ ->
      let rec wait_ready n =
        if !a_ready then ()
        else if n = 0 then Alcotest.fail "holder never got its lease"
        else begin
          Vsim.Proc.sleep (Vsim.Time.ms 1);
          wait_ready (n - 1)
        end
      in
      wait_ready 200;
      K.crash k2;
      stub_write tb ~host:3 ~block:0 'R';
      (* The write was not acknowledged until the dead holder's lease
         could no longer be live anywhere: the server's wait-out runs to
         its recorded grant-time expiry, which lies strictly beyond
         [granted_at + term]. *)
      Alcotest.(check bool) "ack waited out the dead holder's term" true
        (now tb >= !granted_at + Vsim.Time.ms 200);
      Alcotest.(check int) "counted as a break" 1
        (Vfs.Server.leases_broken server))

(* Reopening a parked file under a live lease touches the server zero
   times: the close parked the handle, the reopen reuses it, and the
   warm cache serves the read. *)
let test_zero_rpc_reopen () =
  let tb, _, server = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, cache = make_io tb ~host:2 in
      let f = get (Io.open_file io "data") in
      Alcotest.(check bytes) "warmup read" (expect_block 0)
        (get (Io.read f ~off:0 ~len:512));
      get (Io.close f);
      let before = Vfs.Server.requests_served server in
      let hits0 = (Vfs.Cache.stats cache).Vfs.Cache.hits in
      let f2 = get (Io.open_file io "data") in
      Alcotest.(check int) "reopen under lease: zero server requests" 0
        (Vfs.Server.requests_served server - before);
      Alcotest.(check bool) "lease still stands" true
        (Io.file_lease_valid f2);
      Alcotest.(check bytes) "read after reopen" (expect_block 0)
        (get (Io.read f2 ~off:0 ~len:512));
      Alcotest.(check int) "served from cache" (hits0 + 1)
        (Vfs.Cache.stats cache).Vfs.Cache.hits;
      Alcotest.(check int) "still zero server requests" 0
        (Vfs.Server.requests_served server - before);
      get (Io.close f2))

(* A server restart kills its lease table.  The new incarnation must
   wait out one full term before acking conflicting writes (it cannot
   break leases it cannot enumerate), and the old holder's client must
   demote itself instead of trusting the dead incarnation's lease. *)
let test_restart_grace () =
  let tb, fs, server = rig ~lease_term_ns:(Vsim.Time.ms 200) () in
  let k1 = TB.kernel tb 1 in
  let inum = inum_of fs in
  let holder_io = ref None in
  let holder_file = ref None in
  let a_ready = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn (TB.kernel tb 2) ~name:"holder" (fun _ ->
        let io, _ = make_io ~recover:true tb ~host:2 in
        let f = get (Io.open_file io "data") in
        let (_ : Bytes.t) = get (Io.read f ~off:0 ~len:512) in
        holder_io := Some io;
        holder_file := Some f;
        a_ready := true)
  in
  Util.run_as_process tb ~host:3 (fun _ ->
      let rec wait_ready n =
        if !a_ready then ()
        else if n = 0 then Alcotest.fail "holder never got its lease"
        else begin
          Vsim.Proc.sleep (Vsim.Time.ms 1);
          wait_ready (n - 1)
        end
      in
      wait_ready 200;
      Alcotest.(check int) "one holder before the crash" 1
        (List.length (Vfs.Server.lease_holders server ~inum));
      K.crash k1;
      Vsim.Proc.sleep (Vsim.Time.ms 30);
      K.restart k1;
      let restarted = now tb in
      Vsim.Proc.sleep (Vsim.Time.ms 20);
      Alcotest.(check int) "lease table died with the host" 0
        (List.length (Vfs.Server.lease_holders server ~inum));
      stub_write tb ~host:3 ~block:0 'R';
      Alcotest.(check int) "write sat out the grace period" 1
        (Vfs.Server.grace_waits server);
      Alcotest.(check bool) "grace spans a full term from restart" true
        (now tb >= restarted + Vsim.Time.ms 200));
  (* The old holder reads again: its lease lapsed long ago, so it must
     refetch — through session recovery, since its handle died too. *)
  Util.run_as_process tb ~host:2 (fun _ ->
      match !holder_file with
      | None -> Alcotest.fail "holder file missing"
      | Some f ->
          Alcotest.(check bool) "old incarnation's lease lapsed" false
            (Io.file_lease_valid f);
          Alcotest.(check bytes) "demoted holder sees the new bytes"
            (Bytes.make 512 'R')
            (get (Io.read f ~off:0 ~len:512)))

(* Read blocks [0, n) of [f] and check them against the file's initial
   pattern. *)
let read_initial f n =
  for b = 0 to n - 1 do
    Alcotest.(check bytes)
      (Printf.sprintf "block %d" b)
      (expect_block b)
      (get (Io.read f ~off:(b * 512) ~len:512))
  done

let hits cache = (Vfs.Cache.stats cache).Vfs.Cache.hits

(* A lapsed lease costs one Stat, not the cache: the reopen of a parked
   handle past the term asks for the file's version once, the reply
   vouches for every cached block and renews the lease, and the reads
   that follow are all hits. *)
let test_lapse_keeps_cache () =
  let tb, _, server = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, cache = make_io tb ~host:2 in
      let f = get (Io.open_file io "data") in
      read_initial f 4;
      get (Io.close f);
      Vsim.Proc.sleep (Vsim.Time.ms 250);
      let before = Vfs.Server.requests_served server in
      let hits0 = hits cache in
      let f2 = get (Io.open_file io "data") in
      Alcotest.(check int) "reopen after the term: one Stat" 1
        (Vfs.Server.requests_served server - before);
      read_initial f2 4;
      Alcotest.(check int) "every block a hit" (hits0 + 4) (hits cache);
      Alcotest.(check int) "no further request" 1
        (Vfs.Server.requests_served server - before);
      Alcotest.(check bool) "lease renewed" true (Io.file_lease_valid f2);
      get (Io.close f2))

(* A remote write while the lease was lapsed: the Stat's version is
   newer than the cached blocks' tags, so the written block is fetched
   again and carries the new bytes. *)
let test_lapse_remote_write () =
  let tb, _, server = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, cache = make_io tb ~host:2 in
      let f = get (Io.open_file io "data") in
      read_initial f 4;
      get (Io.close f);
      Vsim.Proc.sleep (Vsim.Time.ms 250);
      let writer_done = ref false in
      let (_ : Vkernel.Pid.t) =
        K.spawn (TB.kernel tb 3) ~name:"writer" (fun _ ->
            stub_write tb ~host:3 ~block:0 'R';
            writer_done := true)
      in
      Vsim.Proc.sleep (Vsim.Time.ms 50);
      Alcotest.(check bool) "writer acked" true !writer_done;
      Alcotest.(check int) "no callback for the lapsed lease" 0
        (Io.breaks_received io);
      let before = Vfs.Server.requests_served server in
      let f2 = get (Io.open_file io "data") in
      Alcotest.(check int) "reopen: one Stat" 1
        (Vfs.Server.requests_served server - before);
      Alcotest.(check bytes) "the written block is fetched again"
        (Bytes.make 512 'R')
        (get (Io.read f2 ~off:0 ~len:512));
      Alcotest.(check bool) "fetched from the server" true
        (Vfs.Server.requests_served server - before >= 2);
      Alcotest.(check bool) "stale copies invalidated" true
        ((Vfs.Cache.stats cache).Vfs.Cache.invalidations >= 1);
      get (Io.close f2))

(* A lease that lapses while the file is open: the next read costs one
   Stat and is served from the cache. *)
let test_lapse_mid_session () =
  let tb, _, server = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, cache = make_io tb ~host:2 in
      let f = get (Io.open_file io "data") in
      read_initial f 1;
      Vsim.Proc.sleep (Vsim.Time.ms 250);
      Alcotest.(check bool) "lapsed" false (Io.file_lease_valid f);
      let before = Vfs.Server.requests_served server in
      let hits0 = hits cache in
      read_initial f 1;
      Alcotest.(check int) "one Stat" 1
        (Vfs.Server.requests_served server - before);
      Alcotest.(check int) "and a hit" (hits0 + 1) (hits cache);
      Alcotest.(check bool) "lease renewed" true (Io.file_lease_valid f);
      get (Io.close f))

(* Versions outlive a restart.  A's write-through cache holds block 0 of
   "data" at version 4 when the server restarts; session recovery on
   another file keeps those clean blocks.  B's write after the grace
   period is the new incarnation's version 2 of the counter, but the
   raised epoch makes it newer than A's tag, so A's reopen drops the
   stale block and reads B's bytes.  With versions that restarted at 1
   the reopen kept A's own bytes. *)
let test_restart_stale_read () =
  let tb, _, server =
    rig ~files:[ ("data", 8 * 512); ("other", 8 * 512) ] ()
  in
  let k1 = TB.kernel tb 1 in
  let a = ref None in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, _ = make_io ~recover:true tb ~host:2 in
      let f = get (Io.open_file io "data") in
      List.iter
        (fun c ->
          let (_ : int) = get (Io.write f ~off:0 (Bytes.make 512 c)) in
          ())
        [ 'a'; 'b'; 'A' ];
      Alcotest.(check int) "three writes: version 4" 4 (Io.file_version f);
      get (Io.close f);
      let other = get (Io.open_file io "other") in
      let (_ : Bytes.t) = get (Io.read other ~off:0 ~len:512) in
      a := Some (io, other));
  let io, other = Option.get !a in
  Util.run_as_process tb ~host:3 (fun _ ->
      K.crash k1;
      Vsim.Proc.sleep (Vsim.Time.ms 30);
      K.restart k1);
  Util.run_as_process tb ~host:2 (fun _ ->
      (* An uncached block: the fetch finds the server gone and runs
         session recovery, which resets the leases. *)
      let (_ : Bytes.t) = get (Io.read other ~off:512 ~len:512) in
      ());
  Util.run_as_process tb ~host:3 (fun _ -> stub_write tb ~host:3 ~block:0 'R');
  Alcotest.(check int) "B's write waited out the grace period" 1
    (Vfs.Server.grace_waits server);
  Util.run_as_process tb ~host:2 (fun _ ->
      let f = get (Io.open_file io "data") in
      Alcotest.(check bytes) "A reads B's write, not its own stale bytes"
        (Bytes.make 512 'R')
        (get (Io.read f ~off:0 ~len:512));
      get (Io.close f))

let violation_strings vs =
  List.map
    (fun (v : Checker.violation) ->
      v.Checker.invariant ^ ": " ^ v.Checker.detail)
    vs

(* The two-client coherence workload: clean unfaulted, clean under a few
   spot schedules (the full sweep runs in CI), and actually exercising
   the machinery it claims to. *)
let test_shared_workload () =
  let shared = Option.get (Checker.Scenario.find "shared") in
  let x = (Vcheck.Workload.run Vcheck.Workload.shared ()).extra in
  Alcotest.(check (list string)) "baseline clean" []
    (violation_strings (shared.run []).violations);
  Alcotest.(check (option int)) "reopen under lease cost zero RPCs"
    (Some 0) x.lease_reopen_rpcs;
  Alcotest.(check bool) "breaks actually flowed" true
    (x.breaks_a >= 1 && x.breaks_b >= 1);
  List.iter
    (fun sched ->
        Alcotest.(check (list string))
          ("schedule " ^ Schedule.to_string sched)
          []
          (violation_strings (shared.run sched).violations))
    Schedule.
      [
        [ { frame = 2; action = Net Vnet.Fault.Drop } ];
        [ { frame = 9; action = Net (Vnet.Fault.Delay (Vsim.Time.ms 15)) } ];
        [
          { frame = 5; action = Net Vnet.Fault.Duplicate };
          { frame = 11; action = Net Vnet.Fault.Reorder };
        ];
        [ { frame = 6; action = Restart (Vsim.Time.ms 50) } ];
      ]

let suite =
  [
    Alcotest.test_case "grant" `Quick test_grant;
    Alcotest.test_case "break before ack" `Quick test_break;
    Alcotest.test_case "expiry" `Quick test_expiry;
    Alcotest.test_case "wait-out for unreachable holder" `Quick test_waitout;
    Alcotest.test_case "zero-RPC reopen" `Quick test_zero_rpc_reopen;
    Alcotest.test_case "lapsed lease keeps the cache" `Quick
      test_lapse_keeps_cache;
    Alcotest.test_case "lapse, then a remote write" `Quick
      test_lapse_remote_write;
    Alcotest.test_case "lapse in mid-session" `Quick test_lapse_mid_session;
    Alcotest.test_case "restart grace period" `Quick test_restart_grace;
    Alcotest.test_case "no stale read across a restart" `Quick
      test_restart_stale_read;
    Alcotest.test_case "shared coherence workload" `Quick
      test_shared_workload;
  ]
