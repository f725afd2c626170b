(* Fault injection: the reliability machinery of Section 3.2 under packet
   loss, corruption and resource exhaustion. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg

module TB = Vworkload.Testbed

(* A short retransmission timeout so fault tests converge quickly. *)
let fast_config =
  { K.default_config with K.retransmit_timeout_ns = Vsim.Time.ms 10 }

let test_send_survives_loss () =
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop 0.25);
  let server = Vworkload.Rigs.start_echo (TB.kernel tb 2) in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      for i = 1 to 30 do
        Msg.set_u8 msg 4 (i land 0x7F);
        Alcotest.check Util.status "send survives loss" K.Ok
          (K.send k1 msg server);
        Alcotest.(check int) "echo correct" ((i land 0x7F) + 1)
          (Msg.get_u8 msg 4)
      done);
  let s = K.stats k1 in
  Alcotest.(check bool) "retransmissions happened" true
    (s.K.retransmissions > 0)

let test_duplicate_filtering () =
  (* With reply packets being dropped, the client retransmits requests the
     server already served: the alien must filter them and re-send the
     cached reply, and the server process must never see a duplicate. *)
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let served = ref 0 in
  let server =
    K.spawn k2 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k2 msg in
          incr served;
          ignore (K.reply k2 msg src);
          loop ()
        in
        loop ())
  in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop 0.3);
  let sent = ref 0 in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"client" (fun _ ->
        let msg = Msg.create () in
        for _ = 1 to 25 do
          Alcotest.check Util.status "send" K.Ok (K.send k1 msg server);
          incr sent
        done)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check int) "sends completed" 25 !sent;
  Alcotest.(check int) "server saw each message exactly once" 25 !served;
  let s2 = K.stats k2 in
  Alcotest.(check bool) "duplicates were filtered" true
    (s2.K.duplicates_filtered > 0)

let test_moveto_survives_loss () =
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop 0.1);
  let mover =
    K.spawn k2 ~name:"mover" (fun pid ->
        let mem = K.memory k2 pid in
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        Vkernel.Mem.write mem ~pos:0
          (Bytes.init 32768 (fun i -> Vworkload.Testbed.pattern_byte (i * 7)));
        Alcotest.check Util.status "move_to under loss" K.Ok
          (K.move_to k2 ~dst_pid:src ~dst:0 ~src:0 ~count:32768);
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:65536;
      Msg.set_no_piggyback msg;
      Alcotest.check Util.status "grant send" K.Ok (K.send k1 msg mover);
      let got = Vkernel.Mem.read mem ~pos:0 ~len:32768 in
      let expect =
        Bytes.init 32768 (fun i -> Vworkload.Testbed.pattern_byte (i * 7))
      in
      Alcotest.(check bool) "data exact despite loss" true
        (Bytes.equal got expect));
  let s1 = K.stats k1 and s2 = K.stats k2 in
  Alcotest.(check bool) "recovery happened" true
    (s1.K.gap_naks_sent > 0 || s2.K.retransmissions > 0
    || s1.K.duplicates_filtered > 0)

let test_movefrom_survives_loss () =
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop 0.1);
  let mover =
    K.spawn k2 ~name:"mover" (fun pid ->
        let mem = K.memory k2 pid in
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        Alcotest.check Util.status "move_from under loss" K.Ok
          (K.move_from k2 ~src_pid:src ~dst:0 ~src:0 ~count:16384);
        Util.check_pattern mem ~pos:0 ~len:16384 ~name:"movefrom data";
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      Util.fill_pattern mem ~pos:0 ~len:16384;
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_only ~ptr:0 ~len:16384;
      Msg.set_no_piggyback msg;
      Alcotest.check Util.status "grant send" K.Ok (K.send k1 msg mover))

let test_hardware_bug_mode () =
  (* Section 5.4: the 3 Mb interface bug corrupts ~1/2000 packets, raising
     the 8 MHz remote exchange from 3.18 to ~3.4 ms through timeouts. *)
  let tb =
    Util.testbed ~cpu_model:Vhw.Cost_model.sun_8mhz ~hosts:2 ()
  in
  let k1 = TB.kernel tb 1 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium Vnet.Fault.hardware_bug;
  let server = Vworkload.Rigs.start_echo (TB.kernel tb 2) in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      let n = 3000 in
      let t0 = Vsim.Engine.now (K.engine k1) in
      for _ = 1 to n do
        Alcotest.check Util.status "send" K.Ok (K.send k1 msg server)
      done;
      let per_op = (Vsim.Engine.now (K.engine k1) - t0) / n in
      (* Expect elevated mean: between 3.2 and 3.8 ms. *)
      let ms = Vsim.Time.to_float_ms per_op in
      if ms < 3.18 || ms > 3.9 then
        Alcotest.failf "bug-mode exchange %.3f ms out of range" ms);
  Alcotest.(check bool) "timeouts occurred" true
    ((K.stats k1).K.retransmissions > 0)

let test_alien_pool_exhaustion () =
  (* More concurrent remote senders than alien descriptors: extra Sends
     get reply-pending treatment and complete once descriptors free up. *)
  let small_pool =
    { fast_config with K.max_aliens = 2 }
  in
  let tb = Util.testbed ~kernel_config:small_pool ~hosts:6 () in
  let k1 = TB.kernel tb 1 in
  (* A slow server that holds messages for a while before replying. *)
  let server =
    K.spawn k1 ~name:"slow" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k1 msg in
          Vsim.Proc.sleep (Vsim.Time.ms 5);
          ignore (K.reply k1 msg src);
          loop ()
        in
        loop ())
  in
  let completions = ref 0 in
  for h = 2 to 6 do
    let k = TB.kernel tb h in
    ignore
      (K.spawn k ~name:"client" (fun _ ->
           let msg = Msg.create () in
           Alcotest.check Util.status "send completes eventually" K.Ok
             (K.send k msg server);
           incr completions))
  done;
  Vworkload.Testbed.run tb;
  Alcotest.(check int) "all five clients served" 5 !completions;
  let s1 = K.stats k1 in
  Alcotest.(check bool) "pool pressure observed" true
    (s1.K.alien_pool_full > 0 || s1.K.reply_pendings_sent > 0)

let test_send_to_dead_host_times_out () =
  (* Host 3 exists on the wire but runs no such process: the kernel NACKs
     and the send fails fast.  A pid whose host does not answer at all
     exhausts retries. *)
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      (* Existing host, no such process: NACKed. *)
      let ghost = Vkernel.Pid.make ~host:2 ~local:999 in
      Alcotest.check Util.status "nacked" K.Nonexistent (K.send k1 msg ghost);
      (* Unattached host: N timeouts then a transient failure; a second
         exhaustion trips the failure detector and the host reads dead. *)
      let t0 = Vsim.Engine.now (K.engine k1) in
      let void = Vkernel.Pid.make ~host:200 ~local:1 in
      Alcotest.check Util.status "timed out" K.Retryable (K.send k1 msg void);
      let took = Vsim.Engine.now (K.engine k1) - t0 in
      Alcotest.(check bool) "took the retry budget" true
        (took >= fast_config.K.max_retries * fast_config.K.retransmit_timeout_ns);
      Alcotest.check Util.status "suspected dead" K.Dead (K.send k1 msg void));
  let s1 = K.stats k1 in
  Alcotest.(check int) "failure detector fired once" 1 s1.K.hosts_suspected;
  Alcotest.(check bool) "timeouts were counted" true (s1.K.timeouts_fired > 0)

let test_reply_pending_extends_patience () =
  (* A server that sits on the message longer than N x T: the client must
     keep waiting (reply-pending resets the retry count), not fail. *)
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let server =
    K.spawn k2 ~name:"ponderous" (fun _ ->
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        (* Hold for far longer than max_retries * timeout = 50 ms. *)
        Vsim.Proc.sleep (Vsim.Time.ms 500);
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Alcotest.check Util.status "patient send succeeds" K.Ok
        (K.send k1 msg server));
  Alcotest.(check bool) "reply-pendings were sent" true
    ((K.stats k2).K.reply_pendings_sent > 0)

let test_scripted_send_reply_loss () =
  (* Deterministic loss: frame 1 is the client's Send, frame 2 the reply.
     Dropping exactly the reply forces one timeout, one retransmission and
     one filtered duplicate — each visible in the stat counters. *)
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop_nth [ 2 ]);
  let server = Vworkload.Rigs.start_echo (TB.kernel tb 2) in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Msg.set_u8 msg 4 7;
      Alcotest.check Util.status "send survives reply loss" K.Ok
        (K.send k1 msg server);
      Alcotest.(check int) "echoed" 8 (Msg.get_u8 msg 4));
  let s1 = K.stats k1 and s2 = K.stats k2 in
  Alcotest.(check int) "one retransmission" 1 s1.K.retransmissions;
  Alcotest.(check int) "one timeout fired" 1 s1.K.timeouts_fired;
  Alcotest.(check int) "one duplicate filtered" 1 s2.K.duplicates_filtered

(* Scripted-loss transfers: a 1 KB fragment takes ~3 ms on the 3 Mb
   medium, so a 3-fragment train outlasts the 10 ms fast timeout.  Give
   the timers room — only the deliberately provoked one may fire. *)
let move_config =
  { K.default_config with K.retransmit_timeout_ns = Vsim.Time.ms 50 }

let scripted_moveto tb ~fault =
  (* A 3-fragment MoveTo inside a Send-Receive-MoveTo-Reply exchange.
     Wire order: 1 Send, 2-4 data fragments, 5 Data_ack, 6 Reply. *)
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium fault;
  let count = 3 * 1024 in
  let mover =
    K.spawn k2 ~name:"mover" (fun pid ->
        let mem = K.memory k2 pid in
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        Vkernel.Mem.write mem ~pos:0
          (Bytes.init count (fun i -> Vworkload.Testbed.pattern_byte i));
        Alcotest.check Util.status "move_to" K.Ok
          (K.move_to k2 ~dst_pid:src ~dst:0 ~src:0 ~count);
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:count;
      Msg.set_no_piggyback msg;
      Alcotest.check Util.status "grant send" K.Ok (K.send k1 msg mover);
      Util.check_pattern mem ~pos:0 ~len:count ~name:"moveto data")

(* One scripted MoveTo losing the frames [drop]: the receiver's gap NAKs,
   the duplicates it filters and the mover's timeouts. *)
let moveto_fragment_loss (drop, naks, dups, timeouts) =
  let tb = Util.testbed ~kernel_config:move_config ~hosts:2 () in
  scripted_moveto tb ~fault:(Vnet.Fault.drop_nth drop);
  let s1 = TB.kernel tb 1 |> K.stats and s2 = TB.kernel tb 2 |> K.stats in
  let case what =
    Printf.sprintf "drop %s: %s"
      (String.concat "," (List.map string_of_int drop))
      what
  in
  Alcotest.(check int) (case "gap NAKs") naks s1.K.gap_naks_sent;
  Alcotest.(check int) (case "duplicates") dups s1.K.duplicates_filtered;
  Alcotest.(check int) (case "mover timeouts") timeouts s2.K.timeouts_fired

let test_scripted_moveto_fragment_loss () =
  List.iter moveto_fragment_loss
    [
      (* A lost mid-train fragment is repaired by the receiver's gap NAK,
         well before the mover's end-of-train timer can fire. *)
      ([ 3 ], 1, 0, 0);
      (* A lost first fragment: the two stale fragments past the gap draw
         one NAK between them, so the mover restreams once. *)
      ([ 2 ], 1, 0, 0);
      (* The one NAK is lost too: the mover's timer fires, and its probe,
         which is always answered, draws the second NAK. *)
      ([ 2; 4 ], 2, 0, 1);
      (* The first fragment and then the head of six restreams in a row
         (each restream is frames n..n+2 after probe n-2 and NAK n-1): the
         stale fragments past each gap draw no NAK, so each loss costs a
         mover timeout, and its probe's NAK repairs it.  Six timeouts are
         more than max_retries (5), yet every NAK is proof of life and
         restarts the budget, so the move completes with exact data; a
         budget that counted every timeout of the train gave up on the
         sixth with Retryable. *)
      ([ 2; 6; 11; 16; 21; 26; 31 ], 7, 0, 6);
    ]

let test_moveto_to_silent_receiver_exhausts () =
  (* The budget restarts only on proof of life: a mover whose receiver
     falls silent mid-train spends it, as a Send to a dead host does. *)
  let tb = Util.testbed ~kernel_config:move_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let count = 3 * 1024 in
  let mover =
    K.spawn k2 ~name:"mover" (fun _ ->
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop 1.0);
        let t0 = Vsim.Engine.now (K.engine k2) in
        Alcotest.check Util.status "move_to exhausts" K.Retryable
          (K.move_to k2 ~dst_pid:src ~dst:0 ~src:0 ~count);
        let took = Vsim.Engine.now (K.engine k2) - t0 in
        Alcotest.(check bool) "took the retry budget" true
          (took
          >= move_config.K.max_retries * move_config.K.retransmit_timeout_ns))
  in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"receiver" (fun _ ->
        let msg = Msg.create () in
        Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:count;
        Msg.set_no_piggyback msg;
        ignore (K.send k1 msg mover : K.status))
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check int) "one timeout per try" (move_config.K.max_retries + 1)
    (K.stats k2).K.timeouts_fired

let test_moveto_into_destroyed_receiver () =
  (* The receiver dies after the first fragment lands: the rest of the
     train must not be placed in its space nor acknowledged, and the
     mover reads Nonexistent. *)
  let tb = Util.testbed ~kernel_config:move_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let count = 16 * 1024 in
  let acks = ref 0 in
  Vsim.Trace.attach tb.Vworkload.Testbed.eng (fun _ ev ->
      match ev with
      | Vsim.Event.Packet_tx { op = "data-ack"; _ } -> incr acks
      | _ -> ());
  let moved = ref None in
  let mover =
    K.spawn k2 ~name:"mover" (fun _ ->
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        moved := Some (K.move_to k2 ~dst_pid:src ~dst:0 ~src:0 ~count);
        ignore (K.reply k2 msg src))
  in
  let receiver =
    K.spawn k1 ~name:"receiver" (fun _ ->
        let msg = Msg.create () in
        Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:count;
        Msg.set_no_piggyback msg;
        ignore (K.send k1 msg mover : K.status))
  in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"killer" (fun _ ->
        while (K.table_counts k1).K.mt_ins_total = 0 do
          Vsim.Proc.sleep (Vsim.Time.us 100)
        done;
        K.destroy k1 receiver)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check (option Util.status)) "mover reads Nonexistent"
    (Some K.Nonexistent) !moved;
  Alcotest.(check int) "no Data_ack" 0 !acks;
  Alcotest.(check int) "entry dropped" 0 (K.table_counts k1).K.mt_ins_total

let test_scripted_moveto_ack_loss () =
  let tb = Util.testbed ~kernel_config:move_config ~hosts:2 () in
  scripted_moveto tb ~fault:(Vnet.Fault.drop_nth [ 5 ]);
  (* Losing the Data_ack leaves the mover waiting: its timer fires, it
     probes, and the receiver — already complete — re-acks. *)
  let s2 = TB.kernel tb 2 |> K.stats in
  Alcotest.(check int) "mover timed out once" 1 s2.K.timeouts_fired;
  Alcotest.(check int) "mover retransmitted once" 1 s2.K.retransmissions

let test_scripted_movefrom_fragment_loss () =
  (* MoveFrom wire order: 1 Send, 2 Move_from_req, 3-5 data fragments,
     6 Reply.  Dropping fragment 4 makes fragment 5 arrive out of order;
     the requester NAKs and the stream resumes from the gap. *)
  let tb = Util.testbed ~kernel_config:move_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop_nth [ 4 ]);
  let count = 3 * 1024 in
  let mover =
    K.spawn k2 ~name:"mover" (fun pid ->
        let mem = K.memory k2 pid in
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        Alcotest.check Util.status "move_from" K.Ok
          (K.move_from k2 ~src_pid:src ~dst:0 ~src:0 ~count);
        Util.check_pattern mem ~pos:0 ~len:count ~name:"movefrom data";
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      Util.fill_pattern mem ~pos:0 ~len:count;
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_only ~ptr:0 ~len:count;
      Msg.set_no_piggyback msg;
      Alcotest.check Util.status "grant send" K.Ok (K.send k1 msg mover));
  let s2 = K.stats k2 in
  Alcotest.(check int) "requester NAKed the gap" 1 s2.K.gap_naks_sent;
  Alcotest.(check int) "requester timer never fired" 0 s2.K.timeouts_fired

(* A counting server whose effect must apply exactly once per logical
   request no matter how many copies of a frame the wire produces. *)
let scripted_duplicate_exchange ~script =
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let served = ref 0 in
  let server =
    K.spawn k2 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k2 msg in
          incr served;
          ignore (K.reply k2 msg src);
          loop ()
        in
        loop ())
  in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.script script);
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Alcotest.check Util.status "send" K.Ok (K.send k1 msg server));
  let m = Vnet.Medium.stats tb.Vworkload.Testbed.medium in
  Alcotest.(check int) "exactly one service" 1 !served;
  Alcotest.(check int) "extra copy accounted" 1 m.Vnet.Medium.duplicated;
  Alcotest.(check int) "delivery conservation" 0
    (m.Vnet.Medium.targeted + m.Vnet.Medium.duplicated
    - m.Vnet.Medium.delivered - m.Vnet.Medium.dropped);
  (K.stats k1, K.stats k2)

let test_scripted_duplicate_request () =
  (* Frame 1 is the Send: its twin reaches the server as a duplicate of a
     queued message and must be filtered, not served twice. *)
  let _, s2 = scripted_duplicate_exchange ~script:[ (1, Vnet.Fault.Duplicate) ] in
  Alcotest.(check bool) "server kernel filtered the twin" true
    (s2.K.duplicates_filtered >= 1)

let test_scripted_duplicate_reply () =
  (* Frame 2 is the Reply: the first copy resumes the client, the second
     must be a no-op (the send is no longer outstanding). *)
  let s1, _ = scripted_duplicate_exchange ~script:[ (2, Vnet.Fault.Duplicate) ] in
  Alcotest.(check int) "no spurious retransmission" 0 s1.K.retransmissions

let test_scripted_duplicate_moveto_data () =
  (* Frame 3 is the first MoveTo data fragment; its twin arrives behind
     it, reads as off < expected, and must be filtered rather than
     re-blitted or NAKed. *)
  let tb = Util.testbed ~kernel_config:move_config ~hosts:2 () in
  scripted_moveto tb ~fault:(Vnet.Fault.script [ (3, Vnet.Fault.Duplicate) ]);
  let s1 = TB.kernel tb 1 |> K.stats and s2 = TB.kernel tb 2 |> K.stats in
  Alcotest.(check bool) "receiver filtered the twin" true
    (s1.K.duplicates_filtered >= 1);
  Alcotest.(check int) "no gap NAK" 0 s1.K.gap_naks_sent;
  Alcotest.(check int) "mover timer never fired" 0 s2.K.timeouts_fired

let test_stale_straggler_filtered () =
  (* A delayed original Send arrives after its retransmission was served
     AND the client has moved on to a later exchange with the same
     server.  The straggler carries an older sequence number and must be
     filtered — not treated as a fresh message and served again. *)
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let served = ref 0 in
  let server =
    K.spawn k2 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k2 msg in
          incr served;
          ignore (K.reply k2 msg src);
          loop ()
        in
        loop ())
  in
  (* Frame 1 is the first Send: park it on the wire past the 10 ms
     retransmission timeout, so its retransmission is served first and a
     second exchange completes before the original finally lands. *)
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium
    (Vnet.Fault.script [ (1, Vnet.Fault.Delay (Vsim.Time.ms 15)) ]);
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Alcotest.check Util.status "first send" K.Ok (K.send k1 msg server);
      Alcotest.check Util.status "second send" K.Ok (K.send k1 msg server));
  Alcotest.(check int) "each request served exactly once" 2 !served;
  Alcotest.(check bool) "straggler was filtered" true
    ((K.stats k2).K.duplicates_filtered >= 1)

(* A kernel keeps one alien per remote sender: a new Send takes over the
   sender's alien whatever state its last exchange left it in (replied,
   still queued, or forwarded), the process it names receives the new
   message and nothing of the old one, and a stale copy of the old Send
   that lands afterwards is still filtered.  [marks] collects byte 4 of
   every message a process receives; the client numbers its Sends. *)
let receive_marked k marks msg =
  let src = K.receive k msg in
  marks := Msg.get_u8 msg 4 :: !marks;
  src

let send_marked k server mark =
  let msg = Msg.create () in
  Msg.set_u8 msg 4 mark;
  let st = K.send k msg server in
  (st, Msg.get_u8 msg 4)

let check_one_alien ~replied k =
  let c = K.table_counts k in
  Alcotest.(check (list int))
    "aliens live, replied, forwarded" [ 0; replied; 0 ]
    [ c.K.aliens_live; c.K.aliens_replied; c.K.aliens_forwarded ]

let rebind_replied () =
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let marks = ref [] in
  let server =
    K.spawn k2 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          ignore (K.reply k2 msg (receive_marked k2 marks msg));
          loop ()
        in
        loop ())
  in
  (* The first Send lands only after both exchanges are over; its
     retransmission is what the server serves. *)
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium
    (Vnet.Fault.script [ (1, Vnet.Fault.Delay (Vsim.Time.ms 50)) ]);
  Util.run_as_process tb ~host:1 (fun _ ->
      List.iter
        (fun mark ->
          Alcotest.(check (pair Util.status int))
            "echoed" (K.Ok, mark) (send_marked k1 server mark))
        [ 1; 2 ]);
  Alcotest.(check (list int)) "served each once" [ 1; 2 ] (List.rev !marks);
  let s2 = K.stats k2 in
  Alcotest.(check int) "aliens created" 2 s2.K.aliens_created;
  Alcotest.(check bool) "stale Send filtered" true
    (s2.K.duplicates_filtered >= 1);
  check_one_alien ~replied:1 k2

let rebind_queued () =
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let medium = tb.Vworkload.Testbed.medium in
  let marks = ref [] in
  let server =
    K.spawn k2 ~name:"late" (fun _ ->
        let msg = Msg.create () in
        Vsim.Proc.sleep (Vsim.Time.ms 1000);
        let rec loop () =
          ignore (K.reply k2 msg (receive_marked k2 marks msg));
          loop ()
        in
        loop ())
  in
  (* The first Send reaches the server's queue; then the wire goes dead
     until the client has given up on it. *)
  let eng = K.engine k1 in
  ignore
    (Vsim.Engine.at eng (Vsim.Time.ms 5) (fun () ->
         Vnet.Medium.set_fault medium (Vnet.Fault.drop 1.0)));
  ignore
    (Vsim.Engine.at eng (Vsim.Time.ms 300) (fun () ->
         Vnet.Medium.set_fault medium Vnet.Fault.none));
  Util.run_as_process tb ~host:1 (fun _ ->
      let st, _ = send_marked k1 server 1 in
      Alcotest.(check bool) "the first Send gave up" true (st <> K.Ok);
      Vsim.Proc.sleep (Vsim.Time.ms 400 - Vsim.Engine.now eng);
      Alcotest.(check (pair Util.status int))
        "the second is served" (K.Ok, 2) (send_marked k1 server 2));
  Alcotest.(check (list int)) "the queued message went stale" [ 2 ] !marks;
  Alcotest.(check int) "aliens created" 2 (K.stats k2).K.aliens_created;
  check_one_alien ~replied:1 k2

let rebind_forwarded () =
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:3 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 and k3 = TB.kernel tb 3 in
  let worked = ref [] and dispatched = ref [] in
  let worker =
    K.spawn k3 ~name:"worker" (fun _ ->
        let msg = Msg.create () in
        let src = receive_marked k3 worked msg in
        Msg.set_u8 msg 4 (Msg.get_u8 msg 4 + 10);
        ignore (K.reply k3 msg src))
  in
  (* The dispatcher forwards its first message to the worker on another
     host and answers the second itself. *)
  let dispatcher =
    K.spawn k2 ~name:"dispatcher" (fun _ ->
        let msg = Msg.create () in
        let src = receive_marked k2 dispatched msg in
        Alcotest.check Util.status "forwarded" K.Ok
          (K.forward k2 msg ~from_pid:src ~to_pid:worker);
        let src = receive_marked k2 dispatched msg in
        Msg.set_u8 msg 4 (Msg.get_u8 msg 4 + 100);
        ignore (K.reply k2 msg src))
  in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium
    (Vnet.Fault.script [ (1, Vnet.Fault.Delay (Vsim.Time.ms 50)) ]);
  Util.run_as_process tb ~host:1 (fun _ ->
      Alcotest.(check (pair Util.status int))
        "the worker answers the first" (K.Ok, 11)
        (send_marked k1 dispatcher 1);
      Alcotest.(check (pair Util.status int))
        "the dispatcher answers the second" (K.Ok, 102)
        (send_marked k1 dispatcher 2));
  Alcotest.(check (list int)) "dispatcher received" [ 1; 2 ]
    (List.rev !dispatched);
  Alcotest.(check (list int)) "worker received" [ 1 ] !worked;
  Alcotest.(check bool) "stale Send filtered" true
    ((K.stats k2).K.duplicates_filtered >= 1);
  check_one_alien ~replied:1 k2

let test_new_send_rebinds_alien () =
  rebind_replied ();
  rebind_queued ();
  rebind_forwarded ()

let test_movefrom_nak_storm_suppressed () =
  (* Found by the vcheck sweep (drop@13 drop@21 over its workload): losing
     the first MoveFrom fragment AND the first fragment of the NAK-driven
     restream used to spiral — every stale out-of-order fragment drew
     another NAK, every NAK and request retransmission started another
     full stream on top of the live ones, and the requester burned its
     whole retry budget into a Retryable failure.  With stream
     supersession at the source and per-gap NAK damping at the requester,
     recovery is one NAK, one timeout, one retransmitted request.
     Wire order: 1 Send, 2 Move_from_req, 3-5 data, then after the NAK
     frame 7 is the restreamed first fragment. *)
  let tb = Util.testbed ~kernel_config:move_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium
    (Vnet.Fault.script [ (3, Vnet.Fault.Drop); (7, Vnet.Fault.Drop) ]);
  let count = 3 * 1024 in
  let mover =
    K.spawn k2 ~name:"mover" (fun pid ->
        let mem = K.memory k2 pid in
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        Alcotest.check Util.status "move_from recovers" K.Ok
          (K.move_from k2 ~src_pid:src ~dst:0 ~src:0 ~count);
        Util.check_pattern mem ~pos:0 ~len:count ~name:"movefrom data";
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      Util.fill_pattern mem ~pos:0 ~len:count;
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_only ~ptr:0 ~len:count;
      Msg.set_no_piggyback msg;
      Alcotest.check Util.status "grant send" K.Ok (K.send k1 msg mover));
  let s2 = K.stats k2 in
  Alcotest.(check int) "one NAK, damped thereafter" 1 s2.K.gap_naks_sent;
  Alcotest.(check int) "one requester timeout" 1 s2.K.timeouts_fired;
  Alcotest.(check int) "one retransmitted request" 1 s2.K.retransmissions

let alien_reclaim_safety start_ms =
  let start = Vsim.Time.ms start_ms in
  let at what = Printf.sprintf "%s (start %d ms)" what start_ms in
  let cfg = { fast_config with K.max_aliens = 1 } in
  let tb = Util.testbed ~kernel_config:cfg ~hosts:3 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 and k3 = TB.kernel tb 3 in
  let served = ref 0 in
  let server =
    K.spawn k1 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k1 msg in
          incr served;
          ignore (K.reply k1 msg src);
          loop ()
        in
        loop ())
  in
  (* Frame 1 is A's Send, frame 2 the server's reply to A: drop it. *)
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop_nth [ 2 ]);
  let a_done = ref false and b_done = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"client-a" (fun _ ->
        Vsim.Proc.sleep start;
        let msg = Msg.create () in
        Alcotest.check Util.status (at "client A completes") K.Ok
          (K.send k2 msg server);
        a_done := true)
  in
  let (_ : Vkernel.Pid.t) =
    K.spawn k3 ~name:"client-b" (fun _ ->
        Vsim.Proc.sleep (start + Vsim.Time.ms 2);
        let msg = Msg.create () in
        Alcotest.check Util.status (at "client B completes") K.Ok
          (K.send k3 msg server);
        b_done := true)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check bool)
    (at "both clients finished")
    true
    (!a_done && !b_done);
  Alcotest.(check int)
    (at "server executed each request exactly once")
    2 !served;
  let s1 = K.stats k1 in
  Alcotest.(check int)
    (at "exactly one alien reclaimed")
    1 s1.K.aliens_reclaimed;
  Alcotest.(check bool)
    (at "A's retransmit served from the reply cache")
    true
    (s1.K.duplicates_filtered >= 1);
  Alcotest.(check bool)
    (at "B waited out the pool")
    true
    (s1.K.alien_pool_full >= 1)

let test_alien_reclaim_safety () =
  (* One alien descriptor, two clients.  Client A's reply is dropped, so
     A keeps retransmitting a request whose cached reply lives in the only
     alien.  Client B's arrival must NOT evict that alien while A's
     retransmission window is plausibly open — otherwise A's retransmit
     would be re-executed.  Once the grace period passes, B's retransmit
     reclaims the descriptor and both complete.  The grace counts from
     the reply, so it holds whenever the exchange starts: at 0 ms and
     long after two retransmission intervals (200 ms). *)
  List.iter alien_reclaim_safety [ 0; 200 ]

let test_finished_train_reacks_late_probe () =
  (* A finished inbound train lives in its receiver's grant until the
     receiver's wait ends, however late its mover probes.  Under an
     adaptive, backed-off estimator the mover's live timer can dwarf the
     configured base timeout; a receiver that dropped the finished train
     any sooner would answer the probe with a NAK and a full restream
     instead of a cheap re-ack.

     Both hosts first burn one send each against the other into Retryable
     (six expiries, backoff 2^6), so their mutual RTO estimates sit near
     the 800 ms cap while the configured base is 10 ms.  Mover A then
     completes a 3-fragment MoveTo whose Data_ack (frame 17) is dropped:
     A waits out its backed-off timer before probing.  Meanwhile a second
     train lands on the same host ~300 ms later.  A's finished train must
     still answer A's probe with a duplicate ack, and neither train may
     outlive its receiver's wait. *)
  let cfg =
    {
      K.default_config with
      K.rto_mode = K.Adaptive;
      retransmit_timeout_ns = Vsim.Time.ms 10;
    }
  in
  let tb = Util.testbed ~kernel_config:cfg ~hosts:3 () in
  let medium = tb.Vworkload.Testbed.medium in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 and k3 = TB.kernel tb 3 in
  let count = 3 * 1024 in
  let mk_mover k name =
    K.spawn k ~name (fun pid ->
        let mem = K.memory k pid in
        Vkernel.Mem.write mem ~pos:0
          (Bytes.init count (fun i -> Vworkload.Testbed.pattern_byte i));
        let msg = Msg.create () in
        let src = K.receive k msg in
        Alcotest.check Util.status (name ^ " move_to") K.Ok
          (K.move_to k ~dst_pid:src ~dst:0 ~src:0 ~count);
        ignore (K.reply k msg src))
  in
  let mover_a = mk_mover k2 "moverA" and mover_b = mk_mover k3 "moverB" in
  let doomed_done = ref false in
  Vnet.Medium.set_fault medium (Vnet.Fault.drop 1.0);
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"doomed-2to1" (fun _ ->
        let msg = Msg.create () in
        Alcotest.check Util.status "2->1 exhausts" K.Retryable
          (K.send k2 msg (Vkernel.Pid.make ~host:1 ~local:999));
        doomed_done := true)
  in
  let grant k mover pid name =
    let mem = K.memory k pid in
    let msg = Msg.create () in
    Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:count;
    Msg.set_no_piggyback msg;
    Alcotest.check Util.status name K.Ok (K.send k msg mover);
    let got = Vkernel.Mem.read mem ~pos:0 ~len:count in
    let expect =
      Bytes.init count (fun i -> Vworkload.Testbed.pattern_byte i)
    in
    Alcotest.(check bool) (name ^ " data exact") true (Bytes.equal got expect)
  in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"clientA" (fun pid ->
        let msg = Msg.create () in
        Alcotest.check Util.status "1->2 exhausts" K.Retryable
          (K.send k1 msg (Vkernel.Pid.make ~host:2 ~local:999));
        while not !doomed_done do
          Vsim.Proc.sleep (Vsim.Time.ms 1)
        done;
        Vnet.Medium.set_fault medium
          (Vnet.Fault.script [ (17, Vnet.Fault.Drop) ]);
        grant k1 mover_a pid "grant A")
  in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"clientB" (fun pid ->
        while (K.table_counts k1).K.mt_ins_total = 0 do
          Vsim.Proc.sleep (Vsim.Time.ms 5)
        done;
        Vsim.Proc.sleep (Vsim.Time.ms 300);
        grant k1 mover_b pid "grant B")
  in
  Vworkload.Testbed.run tb;
  let s1 = K.stats k1 and tc = K.table_counts k1 in
  Alcotest.(check int) "probe re-acked from the finished train, no NAK" 0
    s1.K.gap_naks_sent;
  Alcotest.(check int) "no inbound train outlives its wait" 0
    tc.K.mt_ins_total;
  Alcotest.(check int) "no restreamed duplicate fragments" 0
    s1.K.duplicates_filtered

let test_stale_train_straggler_filtered () =
  (* Two chunked MoveTos into one grant.  The first fragment of chunk 1
     (frame 2) is held back 40 ms: its successor draws a gap NAK, the
     restream completes chunk 1 and chunk 2 lands, and only then does the
     held fragment arrive, still in the receiver's wait.  Its seq is older
     than the train the grant now holds, so it is a stale straggler:
     counted as a duplicate, and neither placed (over chunk 2's bytes),
     acked nor NAKed. *)
  let tb = Util.testbed ~kernel_config:move_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium
    (Vnet.Fault.script [ (2, Vnet.Fault.Delay (Vsim.Time.ms 40)) ]);
  let chunk = 2 * 1024 in
  let sent = Hashtbl.create 4 and arrivals = ref [] in
  Vsim.Trace.attach tb.Vworkload.Testbed.eng (fun _ ev ->
      match ev with
      | Vsim.Event.Packet_tx { host = 1; op; _ } ->
          Hashtbl.replace sent op
            (1 + Option.value (Hashtbl.find_opt sent op) ~default:0)
      | Vsim.Event.Packet_rx { host = 1; op = "data-mt"; seq; _ } ->
          arrivals := seq :: !arrivals
      | _ -> ());
  let mover =
    K.spawn k2 ~name:"mover" (fun pid ->
        Util.fill_pattern (K.memory k2 pid) ~pos:0 ~len:(2 * chunk);
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        List.iter
          (fun at ->
            Alcotest.check Util.status "chunk move_to" K.Ok
              (K.move_to k2 ~dst_pid:src ~dst:at ~src:at ~count:chunk))
          [ 0; chunk ];
        (* Hold the receiver's wait open past the straggler's arrival. *)
        Vsim.Proc.sleep (Vsim.Time.ms 30);
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:(2 * chunk);
      Msg.set_no_piggyback msg;
      Alcotest.check Util.status "grant send" K.Ok (K.send k1 msg mover);
      Util.check_pattern (K.memory k1 pid) ~pos:0 ~len:(2 * chunk)
        ~name:"chunked data");
  let count op = Option.value (Hashtbl.find_opt sent op) ~default:0 in
  (match !arrivals with
  | last :: earlier ->
      Alcotest.(check bool) "the held fragment arrives after chunk 2's" true
        (List.exists (fun seq -> seq > last) earlier)
  | [] -> Alcotest.fail "no fragment arrived");
  Alcotest.(check int) "straggler counted as a duplicate" 1
    (K.stats k1).K.duplicates_filtered;
  Alcotest.(check int) "one ack per chunk" 2 (count "data-ack");
  Alcotest.(check int) "one NAK, for chunk 1's gap" 1 (count "data-nak");
  Alcotest.(check int) "no NACK" 0 (count "nack")

let test_stale_train_straggler_in_later_wait () =
  (* The first fragment (frame 2) of a 2 KB MoveTo is held back 40 ms:
     the second draws a gap NAK, the restream completes the train and the
     receiver's wait ends.  The receiver zeroes its buffer and sends the
     same mover again with the same grant; the mover replies 60 ms later
     and moves nothing.  The held fragment arrives in that second wait,
     whose grant holds no train yet: it is a straggler of the train the
     receiver already took in, so it is counted as a duplicate and
     neither placed, acked nor NAKed. *)
  let tb = Util.testbed ~kernel_config:move_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium
    (Vnet.Fault.script [ (2, Vnet.Fault.Delay (Vsim.Time.ms 40)) ]);
  let count = 2 * 1024 in
  let sent = Hashtbl.create 4 and events = ref [] in
  Vsim.Trace.attach tb.Vworkload.Testbed.eng (fun _ ev ->
      match ev with
      | Vsim.Event.Packet_tx { host = 1; op; _ } ->
          Hashtbl.replace sent op
            (1 + Option.value (Hashtbl.find_opt sent op) ~default:0);
          events := op :: !events
      | Vsim.Event.Packet_rx { host = 1; op = "data-mt"; _ } ->
          events := "data-mt" :: !events
      | _ -> ());
  let mover =
    K.spawn k2 ~name:"mover" (fun pid ->
        Util.fill_pattern (K.memory k2 pid) ~pos:0 ~len:count;
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        Alcotest.check Util.status "move_to" K.Ok
          (K.move_to k2 ~dst_pid:src ~dst:0 ~src:0 ~count);
        ignore (K.reply k2 msg src);
        let src = K.receive k2 msg in
        Vsim.Proc.sleep (Vsim.Time.ms 60);
        ignore (K.reply k2 msg src))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      let send name =
        let msg = Msg.create () in
        Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:count;
        Msg.set_no_piggyback msg;
        Alcotest.check Util.status name K.Ok (K.send k1 msg mover)
      in
      send "first send";
      Util.check_pattern mem ~pos:0 ~len:count ~name:"moved data";
      Vkernel.Mem.fill mem ~pos:0 ~len:count '\000';
      send "second send";
      Alcotest.(check bool) "nothing lands in the second wait" true
        (Vkernel.Mem.equal mem ~pos:0 (Bytes.make count '\000')));
  let count op = Option.value (Hashtbl.find_opt sent op) ~default:0 in
  (match !events with
  | "data-mt" :: earlier ->
      Alcotest.(check int) "the held fragment arrives after the second send"
        2
        (List.length (List.filter (String.equal "send") earlier))
  | _ -> Alcotest.fail "the held fragment did not arrive last");
  Alcotest.(check int) "straggler counted as a duplicate" 1
    (K.stats k1).K.duplicates_filtered;
  Alcotest.(check int) "one ack" 1 (count "data-ack");
  Alcotest.(check int) "one NAK, for the first wait's gap" 1
    (count "data-nak");
  Alcotest.(check int) "no NACK" 0 (count "nack")

(* Hand-built packets: [inject] puts one on the wire from [host]'s
   interface (call it from a process of that host), standing in for a
   malformed or network-delayed packet; [nack_tap] records the code of
   every NACK on the wire, newest first, from an unused station
   address. *)
let inject tb ~host ~dst pkt =
  Vnet.Nic.send (TB.nic tb host) ~dst ~ethertype:Vnet.Frame.ethertype_kernel
    (Vkernel.Packet.to_bytes pkt)

let nack_tap (tb : TB.t) =
  let codes = ref [] in
  Vnet.Medium.attach_tap tb.TB.medium ~addr:99 ~rx:(fun frame ->
      match Vkernel.Packet.of_bytes frame.Vnet.Frame.payload with
      | Ok { Vkernel.Packet.op = Vkernel.Packet.Nack; aux; _ } ->
          codes := aux :: !codes
      | Ok _ | Error _ -> ());
  codes

(* A process's remote move seqs, in order: what a hand-built fragment
   of one of its trains carries. *)
let move_seqs (tb : TB.t) ~host =
  let seqs = ref [] in
  Vsim.Trace.attach tb.TB.eng (fun _ ev ->
      match ev with
      | Vsim.Event.Move { host = h; seq; remote = true; _ } when h = host ->
          seqs := !seqs @ [ seq ]
      | _ -> ());
  seqs

let data_mt ~mover ~receiver ~seq ~offset ~total ~ptr ?data () =
  Vkernel.Packet.make ~op:Vkernel.Packet.Data_mt ~src_pid:mover
    ~dst_pid:receiver ~seq ~offset ~total ~aux:ptr ?data ()

let test_nack_without_refusal_dropped () =
  (* A NACK carries a refusal.  One whose code is none, Ok's 0 or an
     unknown 99, is dropped as undecodable: the blocked sender neither
     fails nor forgets the GetPid binding that named its server, and
     completes on the real reply. *)
  let tb = Util.testbed ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let sent = ref [] and drops = ref [] and lookups = ref 0 in
  Vsim.Trace.attach tb.TB.eng (fun _ ev ->
      match ev with
      | Vsim.Event.Send { host = 1; seq; _ } -> sent := seq :: !sent
      | Vsim.Event.Packet_drop { host = 1; reason; _ } ->
          drops := reason :: !drops
      | Vsim.Event.Packet_tx { host = 1; op = "getpid-req"; _ } ->
          incr lookups
      | _ -> ());
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"server" (fun pid ->
        K.set_pid k2 ~logical_id:7 pid K.Remote;
        let msg = Msg.create () in
        let client = K.receive k2 msg in
        List.iter
          (fun aux ->
            inject tb ~host:2 ~dst:1
              (Vkernel.Packet.make ~op:Vkernel.Packet.Nack ~src_pid:pid
                 ~dst_pid:client ~seq:(List.hd !sent) ~aux ()))
          [ 0; 99 ];
        Vsim.Proc.sleep (Vsim.Time.ms 5);
        Msg.set_u8 msg 4 42;
        Alcotest.check Util.status "reply" K.Ok (K.reply k2 msg client))
  in
  Util.run_as_process tb ~host:1 (fun _ ->
      let server = Option.get (K.get_pid k1 ~logical_id:7 K.Remote) in
      let msg = Msg.create () in
      Alcotest.check Util.status "send completes" K.Ok (K.send k1 msg server);
      Alcotest.(check int) "the server's reply" 42 (Msg.get_u8 msg 4);
      Alcotest.(check bool) "the binding stands" true
        (K.get_pid k1 ~logical_id:7 K.Remote = Some server));
  Alcotest.(check int) "one GetPid broadcast" 1 !lookups;
  Alcotest.(check (list string)) "both NACKs dropped undecoded"
    [ "decode: nack code 0"; "decode: nack code 99" ]
    (List.rev !drops)

(* A client on host 1 grants a mover on host 2 write access to a zeroed
   4 KB buffer; the mover moves the pattern's first [count] bytes into
   it and runs [after], which ends the client's wait with [reply ()].
   [after]'s [send] puts a hand-built packet on the wire from the mover's
   host; [client_after] runs once the client's Send has returned. *)
let moveto_rig ~count ~after ~client_after =
  let tb = Util.testbed ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let codes = nack_tap tb and seqs = move_seqs tb ~host:2 in
  let mover =
    K.spawn k2 ~name:"mover" (fun pid ->
        let mem = K.memory k2 pid in
        Util.fill_pattern mem ~pos:0 ~len:4096;
        let msg = Msg.create () in
        let client = K.receive k2 msg in
        Alcotest.check Util.status "move_to" K.Ok
          (K.move_to k2 ~dst_pid:client ~dst:0 ~src:0 ~count);
        after ~send:(inject tb ~host:2 ~dst:1) ~mover:pid ~mem ~client
          ~seq:(List.hd !seqs) ~reply:(fun () ->
            ignore (K.reply k2 msg client)))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:4096;
      Msg.set_no_piggyback msg;
      Alcotest.check Util.status "grant send" K.Ok (K.send k1 msg mover);
      client_after (K.memory k1 pid));
  codes

let test_moveto_shape_mismatch_refused () =
  (* A fragment of the train the receiver holds, but naming another
     place (aux) and size (total) than that train, is refused
     No_permission, and none of its bytes land. *)
  let codes =
    moveto_rig ~count:2048
      ~after:(fun ~send ~mover ~mem ~client ~seq ~reply ->
        send
          (data_mt ~mover ~receiver:client ~seq ~offset:0 ~total:1024
             ~ptr:2048 ~data:(mem, 0, 1024) ());
        Vsim.Proc.sleep (Vsim.Time.ms 5);
        reply ())
      ~client_after:(fun mem ->
        Util.check_pattern mem ~pos:0 ~len:2048 ~name:"the moved train";
        Alcotest.(check bool) "no bytes of the refused fragment" true
          (Vkernel.Mem.equal mem ~pos:2048 (Bytes.make 2048 '\000')))
  in
  Alcotest.(check (list int)) "refused No_permission"
    [ K.status_to_code K.No_permission ]
    !codes

let test_moveto_after_wait_refused () =
  (* A late fragment and a late probe of a finished train, arriving after
     the mover's Reply ended the receiver's wait, are each refused
     No_permission, and no bytes land in the receiver's space. *)
  let codes =
    moveto_rig ~count:2048
      ~after:(fun ~send ~mover ~mem ~client ~seq ~reply ->
        reply ();
        Vsim.Proc.sleep (Vsim.Time.ms 5);
        send
          (data_mt ~mover ~receiver:client ~seq ~offset:0 ~total:2048 ~ptr:0
             ~data:(mem, 0, 1024) ());
        send
          (data_mt ~mover ~receiver:client ~seq ~offset:2048 ~total:2048
             ~ptr:0 ()))
      ~client_after:(fun mem ->
        Vkernel.Mem.fill mem ~pos:0 ~len:4096 '\000';
        Vsim.Proc.sleep (Vsim.Time.ms 20);
        Alcotest.(check bool) "nothing lands after the wait" true
          (Vkernel.Mem.equal mem ~pos:0 (Bytes.make 4096 '\000')))
  in
  let no_permission = K.status_to_code K.No_permission in
  Alcotest.(check (list int)) "both refused No_permission"
    [ no_permission; no_permission ] !codes

let test_moveto_to_non_awaiting_refused () =
  (* A process blocked in a Send to one process refuses the MoveTo of
     another, whatever its grant covers: the mover's move fails with
     No_permission and no bytes land. *)
  let tb = Util.testbed ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let codes = nack_tap tb in
  let client = ref Vkernel.Pid.nil in
  let server =
    K.spawn k2 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        Vsim.Proc.sleep (Vsim.Time.ms 10);
        ignore (K.reply k2 msg src))
  in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"intruder" (fun pid ->
        Util.fill_pattern (K.memory k2 pid) ~pos:0 ~len:1024;
        Vsim.Proc.sleep (Vsim.Time.ms 2);
        Alcotest.check Util.status "move_to refused" K.No_permission
          (K.move_to k2 ~dst_pid:!client ~dst:0 ~src:0 ~count:1024))
  in
  Util.run_as_process tb ~host:1 (fun pid ->
      client := pid;
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:4096;
      Msg.set_no_piggyback msg;
      Alcotest.check Util.status "send" K.Ok (K.send k1 msg server);
      Alcotest.(check bool) "no bytes of the refused train" true
        (Vkernel.Mem.equal (K.memory k1 pid) ~pos:0 (Bytes.make 4096 '\000')));
  Alcotest.(check (list int)) "refused No_permission"
    [ K.status_to_code K.No_permission ]
    !codes

let test_known_limit_fragment_across_hosts () =
  (* Known limit (ROADMAP, page trains second version, "Name the wait"):
     a receiver names the last MoveTo train it took in by its mover's
     host and seq, so a stale fragment is known only against the last
     train.  Here mover A (host 2) moves one fragment into the receiver;
     mover B (host 3) then moves its own train in; and in the receiver's
     next wait on A, a copy of A's first fragment arrives, standing in
     for one the network delayed across B's whole train.  Against B's
     train it reads as new, so today it is placed in a wait it never
     served.  Once each fragment names the wait it serves, it is dropped
     and this test's last assertion flips. *)
  let tb = Util.testbed ~hosts:3 () in
  let k1 = TB.kernel tb 1 in
  let a_seqs = move_seqs tb ~host:2 in
  let mover ~host ~late =
    let k = TB.kernel tb host in
    K.spawn k ~name:"mover" (fun pid ->
        let mem = K.memory k pid in
        Util.fill_pattern mem ~pos:0 ~len:1024;
        let msg = Msg.create () in
        let client = K.receive k msg in
        Alcotest.check Util.status "move_to" K.Ok
          (K.move_to k ~dst_pid:client ~dst:0 ~src:0 ~count:1024);
        ignore (K.reply k msg client);
        if late then begin
          let client = K.receive k msg in
          inject tb ~host ~dst:1
            (data_mt ~mover:pid ~receiver:client ~seq:(List.hd !a_seqs)
               ~offset:0 ~total:1024 ~ptr:0 ~data:(mem, 0, 1024) ());
          Vsim.Proc.sleep (Vsim.Time.ms 5);
          ignore (K.reply k msg client)
        end)
  in
  let a = mover ~host:2 ~late:true and b = mover ~host:3 ~late:false in
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      let send name peer =
        let msg = Msg.create () in
        Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:1024;
        Msg.set_no_piggyback msg;
        Alcotest.check Util.status name K.Ok (K.send k1 msg peer);
        Util.check_pattern mem ~pos:0 ~len:1024 ~name;
        Vkernel.Mem.fill mem ~pos:0 ~len:1024 '\000'
      in
      send "A's train" a;
      send "B's train" b;
      (* Today: the stale fragment lands. *)
      send "the delayed fragment is placed" a)

let test_reply_just_before_timeout () =
  (* A reply that lands a hair before the client's retransmission timer:
     the stale timer must be a no-op — no spurious retransmission, no
     duplicate service, no double resume. *)
  let delay = ref 0 in
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let served = ref 0 in
  let server =
    K.spawn k2 ~name:"edge-server" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k2 msg in
          incr served;
          if !delay > 0 then Vsim.Proc.sleep !delay;
          ignore (K.reply k2 msg src);
          loop ()
        in
        loop ())
  in
  let completions = ref 0 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      (* Calibrate: a zero-delay exchange measures the loss-free RTT. *)
      let t0 = Vsim.Engine.now (K.engine k1) in
      Alcotest.check Util.status "calibration" K.Ok (K.send k1 msg server);
      let rtt = Vsim.Engine.now (K.engine k1) - t0 in
      let t_cfg = fast_config.K.retransmit_timeout_ns in
      Alcotest.(check bool) "rtt below timeout" true (rtt < t_cfg);
      List.iter
        (fun margin ->
          (* The reply arrives [margin] before the timer would fire. *)
          delay := t_cfg - rtt - margin;
          Alcotest.check Util.status "razor-edge reply" K.Ok
            (K.send k1 msg server);
          incr completions)
        [ Vsim.Time.us 200; Vsim.Time.us 50; Vsim.Time.us 10; Vsim.Time.us 1 ]);
  Alcotest.(check int) "every exchange resumed exactly once" 4 !completions;
  let s1 = K.stats k1 and s2 = K.stats k2 in
  Alcotest.(check int) "no spurious retransmission" 0 s1.K.retransmissions;
  Alcotest.(check int) "no timer fired" 0 s1.K.timeouts_fired;
  Alcotest.(check int) "server executed each request once" 5 !served;
  Alcotest.(check int) "no duplicate reached the server" 0
    s2.K.duplicates_filtered

(* The server replies and then destroys itself, and the reply is lost:
   the request ran and was answered, so the client's retransmission is
   served the cached reply, not refused as sent to a process that no
   longer exists. *)
let test_cached_reply_outlives_replier () =
  let tb = Util.testbed ~kernel_config:fast_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let served = ref 0 in
  let server =
    K.spawn k2 ~name:"server" (fun self ->
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        incr served;
        Msg.set_u8 msg 4 42;
        ignore (K.reply k2 msg src);
        K.destroy k2 self)
  in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop_nth [ 2 ]);
  let got = ref None in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      let st = K.send k1 msg server in
      got := Some (st, Msg.get_u8 msg 4));
  Alcotest.(check (option (pair Util.status int)))
    "the cached reply answers" (Some (K.Ok, 42)) !got;
  Alcotest.(check int) "the server ran once" 1 !served;
  Alcotest.(check bool) "the server is gone" false (K.alive k2 server);
  Alcotest.(check bool) "the Send was retransmitted" true
    ((K.stats k1).K.retransmissions > 0)

let suite =
  [
    Alcotest.test_case "send survives loss" `Quick test_send_survives_loss;
    Alcotest.test_case "duplicate filtering" `Quick test_duplicate_filtering;
    Alcotest.test_case "move_to survives loss" `Quick test_moveto_survives_loss;
    Alcotest.test_case "move_from survives loss" `Quick
      test_movefrom_survives_loss;
    Alcotest.test_case "hardware bug mode (5.4)" `Slow test_hardware_bug_mode;
    Alcotest.test_case "alien pool exhaustion" `Quick
      test_alien_pool_exhaustion;
    Alcotest.test_case "dead host" `Quick test_send_to_dead_host_times_out;
    Alcotest.test_case "reply-pending patience" `Quick
      test_reply_pending_extends_patience;
    Alcotest.test_case "scripted send reply loss" `Quick
      test_scripted_send_reply_loss;
    Alcotest.test_case "scripted move_to fragment loss" `Quick
      test_scripted_moveto_fragment_loss;
    Alcotest.test_case "move_to to a silent receiver exhausts" `Quick
      test_moveto_to_silent_receiver_exhausts;
    Alcotest.test_case "move_to into a destroyed receiver" `Quick
      test_moveto_into_destroyed_receiver;
    Alcotest.test_case "scripted move_to ack loss" `Quick
      test_scripted_moveto_ack_loss;
    Alcotest.test_case "scripted move_from fragment loss" `Quick
      test_scripted_movefrom_fragment_loss;
    Alcotest.test_case "scripted duplicate request" `Quick
      test_scripted_duplicate_request;
    Alcotest.test_case "scripted duplicate reply" `Quick
      test_scripted_duplicate_reply;
    Alcotest.test_case "scripted duplicate move_to data" `Quick
      test_scripted_duplicate_moveto_data;
    Alcotest.test_case "stale straggler filtered" `Quick
      test_stale_straggler_filtered;
    Alcotest.test_case "a new Send rebinds its sender's alien" `Quick
      test_new_send_rebinds_alien;
    Alcotest.test_case "move_from NAK storm suppressed" `Quick
      test_movefrom_nak_storm_suppressed;
    Alcotest.test_case "finished train re-acks late probe" `Quick
      test_finished_train_reacks_late_probe;
    Alcotest.test_case "stale train straggler filtered" `Quick
      test_stale_train_straggler_filtered;
    Alcotest.test_case "stale train straggler in a later wait" `Quick
      test_stale_train_straggler_in_later_wait;
    Alcotest.test_case "NACK without a refusal dropped" `Quick
      test_nack_without_refusal_dropped;
    Alcotest.test_case "move_to fragment of another shape refused" `Quick
      test_moveto_shape_mismatch_refused;
    Alcotest.test_case "move_to fragment after the wait refused" `Quick
      test_moveto_after_wait_refused;
    Alcotest.test_case "move_to to a process awaiting another refused" `Quick
      test_moveto_to_non_awaiting_refused;
    Alcotest.test_case
      "known limit: a fragment delayed across another host's train is placed"
      `Quick test_known_limit_fragment_across_hosts;
    Alcotest.test_case "alien reclaim safety" `Quick test_alien_reclaim_safety;
    Alcotest.test_case "a cached reply outlives its replier" `Quick
      test_cached_reply_outlives_replier;
    Alcotest.test_case "reply just before timeout" `Quick
      test_reply_just_before_timeout;
  ]
