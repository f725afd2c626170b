(* Local IPC semantics: the Thoth model on one workstation. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg

module TB = Vworkload.Testbed

let test_send_receive_reply () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let server = Vworkload.Rigs.start_echo (TB.kernel tb 1) in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Msg.set_u8 msg 4 7;
      Alcotest.check Util.status "send ok" K.Ok (K.send k msg server);
      Alcotest.(check int) "reply overwrote message" 8 (Msg.get_u8 msg 4))

let test_send_nonexistent () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      let ghost = Vkernel.Pid.make ~host:1 ~local:999 in
      Alcotest.check Util.status "nonexistent" K.Nonexistent
        (K.send k msg ghost))

let test_fcfs_queueing () =
  (* Two clients send before the server ever receives; messages must be
     delivered first-come-first-served. *)
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let order = ref [] in
  let server =
    K.spawn k ~name:"slow-server" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 50);
        let msg = Msg.create () in
        for _ = 1 to 2 do
          let src = K.receive k msg in
          order := Msg.get_u8 msg 4 :: !order;
          ignore (K.reply k msg src)
        done)
  in
  let spawn_client tag delay =
    ignore
      (K.spawn k ~name:"client" (fun _ ->
           Vsim.Proc.sleep delay;
           let msg = Msg.create () in
           Msg.set_u8 msg 4 tag;
           ignore (K.send k msg server)))
  in
  spawn_client 1 (Vsim.Time.ms 1);
  spawn_client 2 (Vsim.Time.ms 2);
  Vworkload.Testbed.run tb;
  Alcotest.(check (list int)) "FCFS" [ 1; 2 ] (List.rev !order)

let test_reply_without_receive () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let idle = K.spawn k ~name:"idle" (fun _ -> Vsim.Proc.sleep (Vsim.Time.sec 1)) in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Alcotest.check Util.status "reply to non-sender refused" K.No_permission
        (K.reply k msg idle))

let test_local_timing_8mhz () =
  let tb = Util.testbed ~cpu_model:Vhw.Cost_model.sun_8mhz ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let server = Vworkload.Rigs.start_echo (TB.kernel tb 1) in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      ignore (K.send k msg server);
      let n = 20 in
      let t0 = Vsim.Engine.now (K.engine k) in
      for _ = 1 to n do
        ignore (K.send k msg server)
      done;
      let per_op = (Vsim.Engine.now (K.engine k) - t0) / n in
      (* Table 5-1: local Send-Receive-Reply is 1.00 ms at 8 MHz. *)
      Util.check_ms ~tolerance:0.02 "local S-R-R" 1.00 per_op)

let test_gettime () =
  let tb = Util.testbed ~cpu_model:Vhw.Cost_model.sun_8mhz ~hosts:1 () in
  let k = TB.kernel tb 1 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let t0 = Vsim.Engine.now (K.engine k) in
      let reported = K.get_time k in
      Alcotest.(check bool) "monotone, includes charge" true
        (reported >= t0 + 70_000);
      Util.check_ms ~tolerance:0.001 "GetTime cost" 0.07
        (Vsim.Engine.now (K.engine k) - t0))

let test_local_move_with_grant () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let mover_ready = ref None in
  let mover =
    K.spawn k ~name:"mover" (fun pid ->
        let mem = K.memory k pid in
        let msg = Msg.create () in
        let src = K.receive k msg in
        (* The partner granted read/write on [0, 8192). *)
        Util.fill_pattern mem ~pos:0 ~len:1024;
        Alcotest.check Util.status "move_to ok" K.Ok
          (K.move_to k ~dst_pid:src ~dst:4096 ~src:0 ~count:1024);
        Alcotest.check Util.status "move_from ok" K.Ok
          (K.move_from k ~src_pid:src ~dst:8192 ~src:4096 ~count:1024);
        Util.check_pattern mem ~pos:8192 ~len:1024 ~name:"roundtrip";
        (* Out-of-grant ranges are refused. *)
        Alcotest.check Util.status "beyond grant" K.No_permission
          (K.move_to k ~dst_pid:src ~dst:8192 ~src:0 ~count:1024);
        Alcotest.check Util.status "bad local address" K.Bad_address
          (K.move_to k ~dst_pid:src ~dst:0 ~src:(-4) ~count:1024);
        ignore (K.reply k msg src);
        mover_ready := Some ())
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k pid in
      Vkernel.Mem.fill mem ~pos:4096 ~len:1024 'z';
      (* The pattern lands at 4096 in *our* space; pre-check content to
         ensure move_to really wrote it. *)
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:8192;
      Alcotest.check Util.status "send" K.Ok (K.send k msg mover);
      Util.check_pattern mem ~pos:4096 ~len:1024 ~name:"move_to wrote");
  Alcotest.(check bool) "mover finished" true (!mover_ready <> None)

let test_move_without_grant () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let server =
    K.spawn k ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let src = K.receive k msg in
        (* No segment in the message: all moves must be refused. *)
        Alcotest.check Util.status "no grant" K.No_permission
          (K.move_to k ~dst_pid:src ~dst:0 ~src:0 ~count:16);
        ignore (K.reply k msg src))
  in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Alcotest.check Util.status "send" K.Ok (K.send k msg server))

let test_read_only_grant_refuses_write () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let server =
    K.spawn k ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let src = K.receive k msg in
        Alcotest.check Util.status "write into r/o grant" K.No_permission
          (K.move_to k ~dst_pid:src ~dst:0 ~src:0 ~count:16);
        Alcotest.check Util.status "read from r/o grant ok" K.Ok
          (K.move_from k ~src_pid:src ~dst:0 ~src:0 ~count:16);
        ignore (K.reply k msg src))
  in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_only ~ptr:0 ~len:1024;
      Alcotest.check Util.status "send" K.Ok (K.send k msg server))

let test_grant_cleared_after_reply () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let partner = ref Vkernel.Pid.nil in
  let server =
    K.spawn k ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let src = K.receive k msg in
        partner := src;
        ignore (K.reply k msg src);
        (* After the reply the grant is gone and the sender is no longer
           awaiting us. *)
        Alcotest.check Util.status "stale move refused" K.No_permission
          (K.move_to k ~dst_pid:src ~dst:0 ~src:0 ~count:16))
  in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:1024;
      Alcotest.check Util.status "send" K.Ok (K.send k msg server);
      Vsim.Proc.sleep (Vsim.Time.ms 10))

let test_destroy_fails_senders () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let victim = K.spawn k ~name:"victim" (fun _ -> Vsim.Proc.sleep (Vsim.Time.sec 10)) in
  let sent = ref None in
  let (_ : Vkernel.Pid.t) =
    K.spawn k ~name:"sender" (fun _ ->
        let msg = Msg.create () in
        sent := Some (K.send k msg victim))
  in
  let (_ : Vkernel.Pid.t) =
    K.spawn k ~name:"killer" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 5);
        K.destroy k victim)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check (option Util.status)) "sender failed with Nonexistent"
    (Some K.Nonexistent) !sent;
  Alcotest.(check bool) "victim gone" false (K.alive k victim)

let test_spawn_metadata () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let pid = K.spawn k ~name:"worker" ~mem_size:4096 (fun _ -> ()) in
  Alcotest.(check (option string)) "name" (Some "worker") (K.process_name k pid);
  Alcotest.(check int) "mem size" 4096 (Vkernel.Mem.size (K.memory k pid));
  Alcotest.(check int) "host field" 1 (Vkernel.Pid.host pid);
  Vworkload.Testbed.run tb

(* A kernel operation must come from one of that kernel's processes.
   From a plain event callback, or from a process of another host's
   kernel, it fails with the kernel's own message. *)
let test_outside_a_process () =
  let tb = Util.testbed ~hosts:2 () in
  let k1 = TB.kernel tb 1 in
  let server = Vworkload.Rigs.start_echo k1 in
  let outside = Failure "V kernel operation outside a process of host 1" in
  let send_from_k1 () =
    match K.send k1 (Msg.create ()) server with
    | (_ : K.status) -> Alcotest.fail "send outside a process succeeded"
    | exception e -> e
  in
  let from_callback = ref Not_found in
  ignore
    (Vsim.Engine.at (K.engine k1) (Vsim.Time.ms 1) (fun () ->
         from_callback := send_from_k1 ()));
  let from_host_2 = ref Not_found in
  Util.run_as_process tb ~host:2 (fun _ -> from_host_2 := send_from_k1 ());
  Alcotest.(check string) "from an event callback"
    (Printexc.to_string outside)
    (Printexc.to_string !from_callback);
  Alcotest.(check string) "from another host's process"
    (Printexc.to_string outside)
    (Printexc.to_string !from_host_2)

let suite =
  [
    Alcotest.test_case "send-receive-reply" `Quick test_send_receive_reply;
    Alcotest.test_case "send to nonexistent" `Quick test_send_nonexistent;
    Alcotest.test_case "FCFS queueing" `Quick test_fcfs_queueing;
    Alcotest.test_case "reply without receive" `Quick test_reply_without_receive;
    Alcotest.test_case "local S-R-R timing (8MHz)" `Quick test_local_timing_8mhz;
    Alcotest.test_case "GetTime" `Quick test_gettime;
    Alcotest.test_case "local move with grant" `Quick test_local_move_with_grant;
    Alcotest.test_case "move without grant" `Quick test_move_without_grant;
    Alcotest.test_case "read-only grant" `Quick test_read_only_grant_refuses_write;
    Alcotest.test_case "grant cleared by reply" `Quick test_grant_cleared_after_reply;
    Alcotest.test_case "destroy fails senders" `Quick test_destroy_fails_senders;
    Alcotest.test_case "spawn metadata" `Quick test_spawn_metadata;
    Alcotest.test_case "kernel call outside a process" `Quick
      test_outside_a_process;
  ]
