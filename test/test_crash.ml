(* Host crash + restart: kernel semantics, the crash-recovery workload
   end to end, and regression reproducers the crash sweep found. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg
module Schedule = Vcheck.Schedule
module Checker = Vcheck.Checker

let violation_strings vs =
  List.map
    (fun (v : Checker.violation) -> v.Checker.invariant ^ ": " ^ v.Checker.detail)
    vs

(* Crash drops every process and table; restart runs hooks and brings
   the host back with new pids, so a pre-crash pid is answered
   Nonexistent — never silently aliased to a new process. *)
let test_kernel_crash_restart () =
  let tb =
    Vworkload.Testbed.create ~hosts:2
      ~kernel_config:Vcheck.Workload.fast_config ()
  in
  let kernel i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel in
  let k1 = kernel 1 and k2 = kernel 2 in
  let echo k =
    K.spawn k ~name:"echo" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k msg in
          Msg.set_u8 msg 4 ((Msg.get_u8 msg 4 + 1) land 0xff);
          ignore (K.reply k msg src);
          loop ()
        in
        loop ())
  in
  let old_echo = echo k2 in
  let hook_ran = ref false in
  K.on_restart k2 (fun () -> hook_ran := true);
  let done_ = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"driver" (fun _ ->
        let msg = Msg.create () in
        Msg.set_u8 msg 4 1;
        Alcotest.(check string) "echo works before crash" "ok"
          (match K.send k1 msg old_echo with K.Ok -> "ok" | st -> K.status_to_string st);
        K.crash k2;
        Alcotest.(check bool) "down after crash" true (K.is_down k2);
        Alcotest.(check bool) "processes died" false (K.alive k2 old_echo);
        (match K.spawn k2 ~name:"zombie" (fun _ -> ()) with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "spawn on a down host succeeded");
        (* A send into the outage gets no answer at all: the failure
           detector, not a NACK, is what declares it dead. *)
        let msg = Msg.create () in
        (match K.send k1 msg old_echo with
        | K.Dead | K.Retryable -> ()
        | st -> Alcotest.failf "send to downed host: %s" (K.status_to_string st));
        K.restart k2;
        Alcotest.(check bool) "up after restart" true (not (K.is_down k2));
        Alcotest.(check bool) "restart hook ran" true !hook_ran;
        let new_echo = echo k2 in
        let msg = Msg.create () in
        Msg.set_u8 msg 4 10;
        (match K.send k1 msg new_echo with
        | K.Ok -> Alcotest.(check int) "new echo answers" 11 (Msg.get_u8 msg 4)
        | st -> Alcotest.failf "send after restart: %s" (K.status_to_string st));
        (* The stale pid must be refused, not aliased: the new echo
           took a never-used slot, and a pid's slot is handed out again
           only under a new generation. *)
        let msg = Msg.create () in
        (match K.send k1 msg old_echo with
        | K.Nonexistent -> ()
        | st -> Alcotest.failf "stale pid: %s" (K.status_to_string st));
        done_ := true)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check bool) "driver finished" true !done_

(* A pid from before a crash still misses after the restart once its
   slot has been handed out again: the slot's new process is a later
   generation. *)
let test_precrash_pid_after_slot_reuse () =
  let tb =
    Vworkload.Testbed.create ~hosts:2
      ~kernel_config:Vcheck.Workload.fast_config ()
  in
  let kernel i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel in
  let k1 = kernel 1 and k2 = kernel 2 in
  let old = Vworkload.Rigs.start_echo k2 in
  K.crash k2;
  K.restart k2;
  for _ = 2 to Vkernel.Pid.slots - 1 do
    K.destroy k2 (K.spawn k2 ignore)
  done;
  let echo = Vworkload.Rigs.start_echo k2 in
  Alcotest.(check int) "the old pid's slot" (Vkernel.Pid.slot old)
    (Vkernel.Pid.slot echo);
  let stale = ref None and fresh = ref None in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"driver" (fun _ ->
        stale := Some (K.send k1 (Msg.create ()) old);
        fresh := Some (K.send k1 (Msg.create ()) echo))
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check (option string)) "the pre-crash pid" (Some "nonexistent")
    (Option.map K.status_to_string !stale);
  Alcotest.(check (option string)) "the slot's new process" (Some "ok")
    (Option.map K.status_to_string !fresh)

(* The acceptance scenario: the server host dies in the middle of the
   client's writes and comes back; the client must finish its whole
   script and the disk must hold exactly the acknowledged bytes. *)
let test_mid_write_crash_recovers () =
  let s =
    [ { Schedule.frame = 9; action = Schedule.Restart (Vsim.Time.ms 50) } ]
  in
  let r =
    Vcheck.Workload.run Vcheck.Workload.crash ~fault:(Schedule.to_fault s) ()
  in
  Alcotest.(check int) "crash fired" 1 r.crashes;
  Alcotest.(check int) "restart fired" 1 r.restarts;
  Alcotest.(check (list string)) "no violations" []
    (violation_strings (Checker.Scenario.crash.run s).violations)

(* Regression (found by the depth-1 crash sweep, reproducer
   restart@2+50000us): a crash under the client's very first exchanges
   left a stale GetPid binding in the client kernel's cache; every
   reconnect attempt resolved to the dead pid, was NACKed Nonexistent,
   and the open never succeeded.  Fixed by purging cache bindings for a
   pid the moment a Nonexistent NACK proves it gone. *)
let test_regression_stale_getpid_cache () =
  let s =
    [ { Schedule.frame = 2; action = Schedule.Restart (Vsim.Time.ms 50) } ]
  in
  Alcotest.(check (list string)) "restart@2 clean" []
    (violation_strings (Checker.Scenario.crash.run s).violations)

(* A depth-2 shape: lose a frame while the server is still down, then
   recover through the retransmission machinery as the host returns. *)
let test_crash_plus_drop () =
  let s =
    [
      { Schedule.frame = 6; action = Schedule.Restart (Vsim.Time.ms 50) };
      { Schedule.frame = 8; action = Schedule.Net Vnet.Fault.Drop };
    ]
  in
  Alcotest.(check (list string)) "crash+drop clean" []
    (violation_strings (Checker.Scenario.crash.run s).violations)

(* Regression: session recovery's reopen used to drop the file's cache
   entries — dirty images included — before the re-pushed writes were
   acknowledged.  A second crash landing between the recovery open and
   the write acks then left nothing dirty to retry: the next recovery
   round found a clean cache, the flush reported Ok, and the data was
   gone.  Script: dirty three blocks write-back, crash the server so the
   flush enters recovery, and crash it again the moment the recovery's
   first request is served (after the open, before the pushes are
   acked).  Every block must still reach the recovered disk. *)
let test_recovery_repush_survives_second_crash () =
  let tb =
    Util.testbed ~hosts:2 ~kernel_config:Vcheck.Workload.fast_config ()
  in
  let kernel i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel in
  let fs =
    Vworkload.Testbed.make_test_fs tb ~journal_blocks:64
      ~files:[ ("data", 8 * 512) ]
      ()
  in
  let server = Vfs.Server.start (kernel 1) fs ~restartable:true () in
  let inum =
    match Vfs.Fs.lookup fs "data" with
    | Some i -> i
    | None -> Alcotest.fail "data file missing"
  in
  let ready = ref false and down = ref false and crashes = ref 0 in
  let crasher () =
    let k1 = kernel 1 in
    let await cond =
      let tries = ref 0 in
      while not (cond ()) && !tries < 5000 do
        incr tries;
        Vsim.Proc.sleep (Vsim.Time.ms 1)
      done;
      Alcotest.(check bool) "crasher: condition reached" true (cond ())
    in
    await (fun () -> !ready);
    K.crash k1;
    incr crashes;
    down := true;
    Vsim.Proc.sleep (Vsim.Time.ms 30);
    K.restart k1;
    (* The client's recovery round is under way: its reconnect and open
       are the first requests the new incarnation serves.  Crash again
       the instant one is answered — before the re-pushed dirty writes
       are acknowledged. *)
    let base = Vfs.Server.requests_served server in
    let tries = ref 0 in
    while Vfs.Server.requests_served server <= base && !tries < 5000 do
      incr tries;
      Vsim.Proc.sleep (Vsim.Time.us 200)
    done;
    Alcotest.(check bool) "crasher: recovery request observed" true
      (Vfs.Server.requests_served server > base);
    K.crash k1;
    incr crashes;
    Vsim.Proc.sleep (Vsim.Time.ms 30);
    K.restart k1
  in
  Util.run_as_process tb ~host:2 (fun _ ->
      let (_ : Vkernel.Pid.t) =
        K.spawn (kernel 2) ~name:"crasher" (fun _ -> crasher ())
      in
      let k2 = kernel 2 in
      let conn =
        match Vfs.Client.connect k2 () with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" (Vfs.Client.error_to_string e)
      in
      let cache =
        Vfs.Cache.create tb.Vworkload.Testbed.eng ~host:2
          { Vfs.Cache.capacity_blocks = 8; policy = Vfs.Cache.Write_back }
      in
      let io = Vfs.Client.Io.make ~cache ~recover:true conn in
      let get = function
        | Ok v -> v
        | Error e -> Alcotest.failf "client: %s" (Vfs.Client.error_to_string e)
      in
      let f = get (Vfs.Client.Io.open_file io "data") in
      let content b = Bytes.make 512 (Char.chr (Char.code 'a' + b)) in
      for b = 0 to 2 do
        let (_ : int) =
          get (Vfs.Client.Io.write f ~off:(b * 512) (content b))
        in
        ()
      done;
      ready := true;
      (* Flush only once the server is already down, so the recovery
         path — not a clean push — carries every block. *)
      let tries = ref 0 in
      while not !down && !tries < 5000 do
        incr tries;
        Vsim.Proc.sleep (Vsim.Time.ms 1)
      done;
      get (Vfs.Client.Io.flush f);
      get (Vfs.Client.Io.close f);
      Alcotest.(check int) "both crashes fired" 2 !crashes;
      for b = 0 to 2 do
        let on_disk =
          match Vfs.Fs.read fs ~inum ~pos:(b * 512) ~len:512 with
          | Ok bytes -> bytes
          | Error e -> Alcotest.failf "fs: %a" Vfs.Fs.pp_error e
        in
        Alcotest.(check bytes)
          (Printf.sprintf "block %d survived the double crash" b)
          (content b) on_disk
      done)

let suite =
  [
    Alcotest.test_case "kernel crash/restart semantics" `Quick
      test_kernel_crash_restart;
    Alcotest.test_case "a pre-crash pid after its slot is reused" `Quick
      test_precrash_pid_after_slot_reuse;
    Alcotest.test_case "mid-write crash recovers" `Quick
      test_mid_write_crash_recovers;
    Alcotest.test_case "regression: stale getpid cache" `Quick
      test_regression_stale_getpid_cache;
    Alcotest.test_case "crash + dropped frame" `Quick test_crash_plus_drop;
    Alcotest.test_case "recovery repush survives second crash" `Quick
      test_recovery_repush_survives_second_crash;
  ]
