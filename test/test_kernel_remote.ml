(* Remote IPC: the interkernel protocol between workstations. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg

let kernel_of tb i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel
let cpu_of tb i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.cpu

let test_remote_exchange () =
  let tb = Util.testbed ~hosts:2 () in
  let k1 = kernel_of tb 1 in
  let server = Util.start_echo_server tb ~host:2 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Msg.set_u8 msg 4 41;
      Alcotest.check Util.status "remote send ok" K.Ok (K.send k1 msg server);
      Alcotest.(check int) "echoed" 42 (Msg.get_u8 msg 4));
  let s1 = K.stats k1 in
  Alcotest.(check int) "client counted a remote send" 1
    s1.K.sends_remote;
  Alcotest.(check int) "no retransmissions on a clean net" 0
    s1.K.retransmissions

let test_remote_timing_8mhz () =
  let tb =
    Util.testbed ~cpu_model:Vhw.Cost_model.sun_8mhz ~hosts:2 ()
  in
  let k1 = kernel_of tb 1 in
  let server = Util.start_echo_server tb ~host:2 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      ignore (K.send k1 msg server);
      let n = 20 in
      let c1 = cpu_of tb 1 and c2 = cpu_of tb 2 in
      let m1 = Vhw.Cpu.mark c1 and m2 = Vhw.Cpu.mark c2 in
      let t0 = Vsim.Engine.now (K.engine k1) in
      for _ = 1 to n do
        ignore (K.send k1 msg server)
      done;
      let per_op = (Vsim.Engine.now (K.engine k1) - t0) / n in
      (* Table 5-1: remote S-R-R 3.18 ms; client 1.79; server 2.30. *)
      Util.check_ms ~tolerance:0.1 "remote S-R-R" 3.18 per_op;
      Util.check_ms ~tolerance:0.1 "client CPU" 1.79
        (Vhw.Cpu.busy_since c1 m1 / n);
      Util.check_ms ~tolerance:0.15 "server CPU" 2.30
        (Vhw.Cpu.busy_since c2 m2 / n))

let test_concurrency_overlap () =
  (* Client + server processor time must exceed elapsed time: the paper's
     evidence of overlap between the workstations. *)
  let tb = Util.testbed ~cpu_model:Vhw.Cost_model.sun_8mhz ~hosts:2 () in
  let k1 = kernel_of tb 1 in
  let server = Util.start_echo_server tb ~host:2 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      ignore (K.send k1 msg server);
      let c1 = cpu_of tb 1 and c2 = cpu_of tb 2 in
      let m1 = Vhw.Cpu.mark c1 and m2 = Vhw.Cpu.mark c2 in
      let t0 = Vsim.Engine.now (K.engine k1) in
      let n = 20 in
      for _ = 1 to n do
        ignore (K.send k1 msg server)
      done;
      let elapsed = Vsim.Engine.now (K.engine k1) - t0 in
      let total_cpu = Vhw.Cpu.busy_since c1 m1 + Vhw.Cpu.busy_since c2 m2 in
      Alcotest.(check bool) "client+server CPU > elapsed" true
        (total_cpu > elapsed))

let test_piggybacked_segment () =
  (* A Send with a read segment delivers its head to a
     ReceiveWithSegment. *)
  let tb = Util.testbed ~hosts:2 () in
  let k1 = kernel_of tb 1 and k2 = kernel_of tb 2 in
  let seen = ref (-1) in
  let server =
    K.spawn k2 ~name:"server" (fun pid ->
        let mem = K.memory k2 pid in
        let msg = Msg.create () in
        let src, count = K.receive_with_segment k2 msg ~segptr:0 ~segsize:512 in
        seen := count;
        Util.check_pattern mem ~pos:0 ~len:count ~name:"piggyback data";
        ignore (K.reply k2 msg src))
  in
  ignore server;
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      (* Pattern at offset 0, so receiver-side check uses the same
         pattern indices. *)
      Util.fill_pattern mem ~pos:0 ~len:256;
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_only ~ptr:0 ~len:256;
      Alcotest.check Util.status "send" K.Ok (K.send k1 msg server));
  Alcotest.(check int) "segment bytes received" 256 !seen

let test_reply_with_segment_remote () =
  let tb = Util.testbed ~hosts:2 () in
  let k1 = kernel_of tb 1 and k2 = kernel_of tb 2 in
  let server =
    K.spawn k2 ~name:"server" (fun pid ->
        let mem = K.memory k2 pid in
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        let dptr =
          match Msg.writable_segment msg with
          | Some (p, _) -> p
          | None -> Alcotest.fail "no write grant"
        in
        Util.fill_pattern mem ~pos:0 ~len:512;
        Msg.clear_segment msg;
        Alcotest.check Util.status "reply+segment" K.Ok
          (K.reply_with_segment k2 msg src ~destptr:dptr ~segptr:0
             ~segsize:512))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Write_only ~ptr:4096 ~len:512;
      Alcotest.check Util.status "send" K.Ok (K.send k1 msg server);
      (* pattern indices are segment-relative (0..511) at our 4096. *)
      let got = Vkernel.Mem.read mem ~pos:4096 ~len:512 in
      let expect = Bytes.init 512 Vworkload.Testbed.pattern_byte in
      Alcotest.(check bytes) "reply segment data" expect got)

let test_reply_segment_too_big () =
  let tb = Util.testbed ~hosts:2 () in
  let k1 = kernel_of tb 1 and k2 = kernel_of tb 2 in
  let server =
    K.spawn k2 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        Alcotest.check Util.status "oversize reply segment" K.Too_big
          (K.reply_with_segment k2 msg src ~destptr:0 ~segptr:0 ~segsize:8192);
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Write_only ~ptr:0 ~len:16384;
      Alcotest.check Util.status "send still completes" K.Ok
        (K.send k1 msg server))

let test_segment_truncation () =
  (* The receiver's segsize caps the piggyback; the kernel's
     max_seg_append caps what the Send transmits. *)
  let cap = K.default_config.K.max_seg_append in
  let tb = Util.testbed ~hosts:2 () in
  let k1 = kernel_of tb 1 and k2 = kernel_of tb 2 in
  let counts = ref [] in
  let server =
    K.spawn k2 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          (* First receive offers only 100 bytes of buffer; second offers
             plenty. *)
          let n = if List.length !counts = 0 then 100 else 4096 in
          let src, count = K.receive_with_segment k2 msg ~segptr:0 ~segsize:n in
          counts := count :: !counts;
          ignore (K.reply k2 msg src);
          loop ()
        in
        loop ())
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      Util.fill_pattern mem ~pos:0 ~len:2048;
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_only ~ptr:0 ~len:2048;
      ignore (K.send k1 msg server);
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_only ~ptr:0 ~len:2048;
      ignore (K.send k1 msg server));
  Alcotest.(check (list int))
    "receiver buffer caps, then the kernel append cap"
    [ 100; cap ] (List.rev !counts)

let test_plain_receive_ignores_segment () =
  (* "Use of ReceiveWithSegment ... is optional and transparent to
     processes simply using Send": a plain Receive gets the message and
     no data is deposited anywhere. *)
  let tb = Util.testbed ~hosts:2 () in
  let k1 = kernel_of tb 1 and k2 = kernel_of tb 2 in
  let server =
    K.spawn k2 ~name:"server" (fun pid ->
        let mem = K.memory k2 pid in
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        let untouched = Vkernel.Mem.read mem ~pos:0 ~len:64 in
        Alcotest.(check bytes) "receiver memory untouched"
          (Bytes.make 64 '\000') untouched;
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      Util.fill_pattern mem ~pos:0 ~len:512;
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_only ~ptr:0 ~len:512;
      Alcotest.check Util.status "send with segment to plain receiver" K.Ok
        (K.send k1 msg server))

let test_bad_piggyback_range () =
  (* A read segment pointing outside the sender's space: the Send still
     completes, but nothing is piggybacked. *)
  let tb = Util.testbed ~hosts:2 () in
  let k1 = kernel_of tb 1 and k2 = kernel_of tb 2 in
  let seen = ref (-1) in
  let server =
    K.spawn k2 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let src, count = K.receive_with_segment k2 msg ~segptr:0 ~segsize:512 in
        seen := count;
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_only
        ~ptr:(Vkernel.Mem.size mem - 16)
        ~len:4096;
      Alcotest.check Util.status "send still completes" K.Ok
        (K.send k1 msg server));
  Alcotest.(check int) "no bytes piggybacked" 0 !seen

let test_trace_attach () =
  (* An engine-scoped tracer observes kernel activity as typed events. *)
  let hits = ref 0 in
  let tb = Util.testbed ~hosts:2 () in
  let eng = tb.Vworkload.Testbed.eng in
  Alcotest.(check bool) "untraced" false (Vsim.Trace.tracing eng);
  Vsim.Trace.attach eng (fun _ ev ->
      if Vsim.Event.topic ev = "kernel" then incr hits);
  Alcotest.(check bool) "tracing" true (Vsim.Trace.tracing eng);
  let k1 = kernel_of tb 1 in
  let server = Util.start_echo_server tb ~host:2 in
  Util.run_as_process tb ~host:1 (fun _ ->
      ignore (K.send k1 (Msg.create ()) server));
  Vsim.Trace.detach_all eng;
  Alcotest.(check bool) "detached" false (Vsim.Trace.tracing eng);
  Alcotest.(check bool) "kernel events traced" true (!hits >= 4)

let test_page_read_timing_pinned () =
  (* Table 6-1's headline: remote 512-byte page read at 10 MHz is
     5.56 ms. The rig must stay within 0.15 ms of it. *)
  let cols =
    Vworkload.Rigs.page_op ~trials:30 ~client_host:2 ~write:false
      ~basic:false ()
  in
  Util.check_ms ~tolerance:0.15 "remote page read" 5.56
    cols.Vworkload.Rigs.elapsed

let test_multiple_clients_one_server () =
  let tb = Util.testbed ~hosts:4 () in
  let server = Util.start_echo_server tb ~host:1 in
  let done_count = ref 0 in
  for h = 2 to 4 do
    let k = kernel_of tb h in
    ignore
      (K.spawn k ~name:"client" (fun _ ->
           let msg = Msg.create () in
           for i = 1 to 10 do
             Msg.set_u8 msg 4 i;
             Alcotest.check Util.status "send" K.Ok (K.send k msg server);
             Alcotest.(check int) "echo" (i + 1) (Msg.get_u8 msg 4)
           done;
           incr done_count))
  done;
  Vworkload.Testbed.run tb;
  Alcotest.(check int) "all clients done" 3 !done_count

let test_cross_host_pids () =
  let tb = Util.testbed ~hosts:2 () in
  let k1 = kernel_of tb 1 in
  let server = Util.start_echo_server tb ~host:2 in
  Alcotest.(check int) "server pid carries host 2" 2 (Vkernel.Pid.host server);
  Util.run_as_process tb ~host:1 (fun pid ->
      Alcotest.(check int) "client pid carries host 1" 1 (Vkernel.Pid.host pid);
      ignore (K.send k1 (Msg.create ()) server))

let test_destroy_stops_exchanges () =
  (* Two processes send-blocked on a slow server and one moving to a
     silent host are destroyed.  Their exchanges die with them: no further
     retransmission, no suspicion of the peers, and no process resumed. *)
  let tb = Util.testbed ~hosts:2 () in
  let k1 = kernel_of tb 1 and k2 = kernel_of tb 2 in
  let server =
    K.spawn k2 ~name:"slow" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k2 msg in
          Vsim.Proc.sleep (Vsim.Time.sec 5);
          ignore (K.reply k2 msg src);
          loop ()
        in
        loop ())
  in
  let void = Vkernel.Pid.make ~host:77 ~local:1 in
  let resumed = ref 0 in
  let client op =
    K.spawn k1 ~name:"client" (fun _ ->
        ignore (op ());
        incr resumed)
  in
  let victims =
    [
      client (fun () -> K.send k1 (Msg.create ()) server);
      client (fun () -> K.send k1 (Msg.create ()) server);
      client (fun () -> K.move_to k1 ~dst_pid:void ~dst:0 ~src:0 ~count:2048);
    ]
  in
  let at_destroy = ref None in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"reaper" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 10);
        List.iter (K.destroy k1) victims;
        at_destroy := Some (K.stats k1))
  in
  Vworkload.Testbed.run tb;
  let before = Option.get !at_destroy and after = K.stats k1 in
  Alcotest.(check int) "no retransmission after destroy"
    before.K.retransmissions after.K.retransmissions;
  Alcotest.(check int) "no timeout after destroy" before.K.timeouts_fired
    after.K.timeouts_fired;
  Alcotest.(check bool) "live server not suspected" false
    (K.host_suspected k1 ~host:2);
  Alcotest.(check bool) "silent host not suspected" false
    (K.host_suspected k1 ~host:77);
  Alcotest.(check int) "no destroyed process resumed" 0 !resumed;
  let c = K.table_counts k1 in
  Alcotest.(check int) "no send left" 0 c.K.sends_blocked;
  Alcotest.(check int) "no move left" 0 c.K.mt_outs_pending

let suite =
  [
    Alcotest.test_case "remote exchange" `Quick test_remote_exchange;
    Alcotest.test_case "remote timing (Table 5-1)" `Quick
      test_remote_timing_8mhz;
    Alcotest.test_case "client/server overlap" `Quick test_concurrency_overlap;
    Alcotest.test_case "piggybacked segment" `Quick test_piggybacked_segment;
    Alcotest.test_case "reply with segment" `Quick
      test_reply_with_segment_remote;
    Alcotest.test_case "reply segment too big" `Quick
      test_reply_segment_too_big;
    Alcotest.test_case "segment truncation" `Quick test_segment_truncation;
    Alcotest.test_case "bad piggyback range" `Quick test_bad_piggyback_range;
    Alcotest.test_case "trace attach" `Quick test_trace_attach;
    Alcotest.test_case "plain receive ignores segment" `Quick
      test_plain_receive_ignores_segment;
    Alcotest.test_case "page read timing (Table 6-1)" `Quick
      test_page_read_timing_pinned;
    Alcotest.test_case "multiple clients" `Quick
      test_multiple_clients_one_server;
    Alcotest.test_case "cross-host pids" `Quick test_cross_host_pids;
    Alcotest.test_case "destroy stops exchanges" `Quick
      test_destroy_stops_exchanges;
  ]
