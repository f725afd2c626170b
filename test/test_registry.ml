(* SetPid/GetPid: the logical process registry with broadcast lookup. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg

module TB = Vworkload.Testbed

let test_local_scope () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  Util.run_as_process tb ~host:1 (fun pid ->
      K.set_pid k ~logical_id:5 pid K.Local;
      Alcotest.(check bool) "local lookup finds it" true
        (K.get_pid k ~logical_id:5 K.Local = Some pid);
      Alcotest.(check bool) "any lookup finds it" true
        (K.get_pid k ~logical_id:5 K.Any = Some pid))

let test_remote_discovery () =
  let tb = Util.testbed ~hosts:3 () in
  let k2 = TB.kernel tb 2 in
  let server = ref Vkernel.Pid.nil in
  let k1 = TB.kernel tb 1 in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"server" (fun pid ->
        server := pid;
        K.set_pid k1 ~logical_id:9 pid K.Any;
        Vsim.Proc.sleep (Vsim.Time.sec 1))
  in
  let found = ref None in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"client" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 10);
        found := K.get_pid k2 ~logical_id:9 K.Any)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check bool) "broadcast discovery" true (!found = Some !server)

let test_local_only_not_visible_remotely () =
  let tb = Util.testbed ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"server" (fun pid ->
        K.set_pid k1 ~logical_id:7 pid K.Local;
        Vsim.Proc.sleep (Vsim.Time.sec 2))
  in
  let found = ref (Some Vkernel.Pid.nil) in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"client" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 10);
        found := K.get_pid k2 ~logical_id:7 K.Any)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check bool) "local-scope entry hidden from the network" true
    (!found = None)

let test_not_found_times_out () =
  let tb = Util.testbed ~hosts:2 () in
  let k1 = TB.kernel tb 1 in
  let t_took = ref 0 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let t0 = Vsim.Engine.now (K.engine k1) in
      let r = K.get_pid k1 ~logical_id:404 K.Any in
      t_took := Vsim.Engine.now (K.engine k1) - t0;
      Alcotest.(check bool) "no such service" true (r = None));
  (* GetPid rides the shared retransmission path: 1 + max_retries
     broadcast attempts, each waiting at least the base timeout. *)
  let cfg = Vkernel.Kernel.default_config in
  Alcotest.(check bool) "took the retry budget" true
    (!t_took >= (1 + cfg.K.max_retries) * cfg.K.retransmit_timeout_ns);
  (* The rebroadcasts land in the shared counters, not a GetPid-private
     path. *)
  let s1 = K.stats k1 in
  Alcotest.(check int) "rebroadcasts counted as retransmissions"
    cfg.K.max_retries s1.K.retransmissions;
  Alcotest.(check int) "expiries counted as timeouts"
    (1 + cfg.K.max_retries) s1.K.timeouts_fired

let test_cache_after_discovery () =
  let tb = Util.testbed ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"server" (fun pid ->
        K.set_pid k1 ~logical_id:3 pid K.Any;
        Vsim.Proc.sleep (Vsim.Time.sec 2))
  in
  let second_lookup_ns = ref max_int in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"client" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 10);
        let first = K.get_pid k2 ~logical_id:3 K.Any in
        let t0 = Vsim.Engine.now (K.engine k2) in
        let second = K.get_pid k2 ~logical_id:3 K.Any in
        second_lookup_ns := Vsim.Engine.now (K.engine k2) - t0;
        Alcotest.(check bool) "stable answer" true (first = second && first <> None))
  in
  Vworkload.Testbed.run tb;
  (* A cached lookup costs just the syscall, not a broadcast round. *)
  Alcotest.(check bool) "second lookup is local" true
    (!second_lookup_ns < Vsim.Time.ms 1)

let test_send_via_logical_id () =
  (* The canonical client flow: find the file server by logical id, then
     talk to it. *)
  let tb = Util.testbed ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"server" (fun pid ->
        K.set_pid k1 ~logical_id:77 pid K.Any;
        let msg = Msg.create () in
        let src = K.receive k1 msg in
        Msg.set_u8 msg 4 99;
        ignore (K.reply k1 msg src))
  in
  let ok = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"client" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 5);
        match K.get_pid k2 ~logical_id:77 K.Any with
        | None -> Alcotest.fail "no server"
        | Some srv ->
            let msg = Msg.create () in
            Alcotest.check Util.status "send" K.Ok (K.send k2 msg srv);
            ok := Msg.get_u8 msg 4 = 99)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check bool) "request served" true !ok

let suite =
  [
    Alcotest.test_case "local scope" `Quick test_local_scope;
    Alcotest.test_case "remote discovery" `Quick test_remote_discovery;
    Alcotest.test_case "local-only hidden" `Quick
      test_local_only_not_visible_remotely;
    Alcotest.test_case "not found times out" `Quick test_not_found_times_out;
    Alcotest.test_case "cache after discovery" `Quick test_cache_after_discovery;
    Alcotest.test_case "send via logical id" `Quick test_send_via_logical_id;
  ]
