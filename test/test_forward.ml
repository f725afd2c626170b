(* Forward and ReceiveSpecific: the Thoth primitives beyond the basic
   exchange. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg

module TB = Vworkload.Testbed

(* A worker that receives one message, adds [delta] to byte 4, replies. *)
let one_shot_adder k ~delta =
  K.spawn k ~name:"adder" (fun _ ->
      let msg = Msg.create () in
      let src = K.receive k msg in
      Msg.set_u8 msg 4 (Msg.get_u8 msg 4 + delta);
      ignore (K.reply k msg src))

(* A dispatcher that receives one message and forwards it (unchanged) to
   [target]. *)
let dispatcher k ~target ~forward_status =
  K.spawn k ~name:"dispatcher" (fun _ ->
      let msg = Msg.create () in
      let src = K.receive k msg in
      forward_status := Some (K.forward k msg ~from_pid:src ~to_pid:target))

let run_forward_case ~hosts ~client_host ~dispatcher_host ~worker_host () =
  let tb = Util.testbed ~hosts () in
  let worker = one_shot_adder (TB.kernel tb worker_host) ~delta:10 in
  let fstatus = ref None in
  let disp =
    dispatcher (TB.kernel tb dispatcher_host) ~target:worker
      ~forward_status:fstatus
  in
  let kc = TB.kernel tb client_host in
  Util.run_as_process tb ~host:client_host (fun _ ->
      let msg = Msg.create () in
      Msg.set_u8 msg 4 5;
      Alcotest.check Util.status "send through dispatcher" K.Ok
        (K.send kc msg disp);
      Alcotest.(check int) "reply came from the worker" 15 (Msg.get_u8 msg 4));
  Alcotest.(check (option Util.status)) "forward succeeded" (Some K.Ok)
    !fstatus

let test_forward_local_local () =
  run_forward_case ~hosts:1 ~client_host:1 ~dispatcher_host:1 ~worker_host:1 ()

let test_forward_local_remote () =
  (* Sender and dispatcher share a host; worker is remote. *)
  run_forward_case ~hosts:2 ~client_host:1 ~dispatcher_host:1 ~worker_host:2 ()

let test_forward_remote_local () =
  (* Sender remote, dispatcher forwards to a process on its own host. *)
  run_forward_case ~hosts:2 ~client_host:2 ~dispatcher_host:1 ~worker_host:1 ()

let test_forward_remote_remote () =
  (* Three machines: sender -> dispatcher -> worker; the reply crosses
     directly from worker host to sender host. *)
  run_forward_case ~hosts:3 ~client_host:1 ~dispatcher_host:2 ~worker_host:3 ()

let test_forward_reply_bypasses_dispatcher () =
  (* In the three-host case the dispatcher must see the Send but not the
     Reply: count its packets. *)
  let tb = Util.testbed ~hosts:3 () in
  let worker = one_shot_adder (TB.kernel tb 3) ~delta:1 in
  let fstatus = ref None in
  let disp = dispatcher (TB.kernel tb 2) ~target:worker ~forward_status:fstatus in
  let kc = TB.kernel tb 1 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      ignore (K.send kc msg disp));
  let s2 = K.stats (TB.kernel tb 2) in
  (* Dispatcher host sent: forwarded Send + Fwd_notice = 2 packets, and
     received just the original Send. *)
  Alcotest.(check int) "dispatcher tx" 2 s2.K.packets_sent;
  Alcotest.(check int) "dispatcher rx" 1 s2.K.packets_received

let test_forward_without_receive () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let idle = K.spawn k ~name:"idle" (fun _ -> Vsim.Proc.sleep (Vsim.Time.sec 1)) in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Alcotest.check Util.status "cannot forward a non-sender" K.No_permission
        (K.forward k msg ~from_pid:idle ~to_pid:idle))

let test_forward_to_dead () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let ghost = Vkernel.Pid.make ~host:1 ~local:999 in
  let fstatus = ref None in
  let disp = dispatcher k ~target:ghost ~forward_status:fstatus in
  let sender_status = ref None in
  let (_ : Vkernel.Pid.t) =
    K.spawn k ~name:"sender" (fun _ ->
        let msg = Msg.create () in
        sender_status := Some (K.send k msg disp))
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check (option Util.status)) "forward failed" (Some K.Nonexistent)
    !fstatus;
  Alcotest.(check (option Util.status)) "sender unblocked with failure"
    (Some K.Nonexistent) !sender_status

let test_forward_with_segment_grant () =
  (* Forward preserving a write grant: the worker replies with a segment
     straight into the original sender's space (remote-to-remote). *)
  let tb = Util.testbed ~hosts:3 () in
  let k3 = TB.kernel tb 3 in
  let worker =
    K.spawn k3 ~name:"worker" (fun pid ->
        let mem = K.memory k3 pid in
        let msg = Msg.create () in
        let src = K.receive k3 msg in
        let dptr =
          match Msg.writable_segment msg with
          | Some (p, _) -> p
          | None -> Alcotest.fail "grant lost in forwarding"
        in
        Util.fill_pattern mem ~pos:0 ~len:512;
        Msg.clear_segment msg;
        Alcotest.check Util.status "reply with segment after forward" K.Ok
          (K.reply_with_segment k3 msg src ~destptr:dptr ~segptr:0
             ~segsize:512))
  in
  let k2 = TB.kernel tb 2 in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"dispatcher" (fun _ ->
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        Alcotest.check Util.status "forward" K.Ok
          (K.forward k2 msg ~from_pid:src ~to_pid:worker))
  in
  let k1 = TB.kernel tb 1 in
  let disp_pid = ref Vkernel.Pid.nil in
  (* find dispatcher pid: it is the only process on host 2 *)
  ignore disp_pid;
  Util.run_as_process tb ~host:1 (fun pid ->
      let mem = K.memory k1 pid in
      (* locate the dispatcher via the registry *)
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Write_only ~ptr:4096 ~len:512;
      (* dispatcher is host 2, local id 1 *)
      let disp = Vkernel.Pid.make ~host:2 ~local:1 in
      Alcotest.check Util.status "send" K.Ok (K.send k1 msg disp);
      Util.check_pattern mem ~pos:4096 ~len:512 ~name:"segment via forward")

let test_forward_drops_train () =
  (* A MoveTo train lives in its receiver's grant and ends with a change
     of peer.  The dispatcher on host 2 moves 2 KB of 'a' into the
     sender's grant and forwards the Send to a worker on host 3, whose
     MoveTo of 2 KB of 'b' into the same range carries the same sequence
     number: each host numbers its own exchanges.  The worker's train
     must start fresh and land its bytes, not be acked as a repeat of
     the dispatcher's finished one. *)
  let tb = Util.testbed ~hosts:3 () in
  let count = 2048 in
  let seqs = ref [] in
  Vsim.Trace.attach tb.Vworkload.Testbed.eng (fun _ ev ->
      match ev with
      | Vsim.Event.Move { seq; remote = true; _ } -> seqs := seq :: !seqs
      | _ -> ());
  let mover k pid byte =
    Vkernel.Mem.write (K.memory k pid) ~pos:0 (Bytes.make count byte);
    let msg = Msg.create () in
    let src = K.receive k msg in
    Alcotest.check Util.status "move_to" K.Ok
      (K.move_to k ~dst_pid:src ~dst:0 ~src:0 ~count);
    (msg, src)
  in
  let k2 = TB.kernel tb 2 and k3 = TB.kernel tb 3 in
  let worker =
    K.spawn k3 ~name:"worker" (fun pid ->
        let msg, src = mover k3 pid 'b' in
        ignore (K.reply k3 msg src))
  in
  let disp =
    K.spawn k2 ~name:"dispatcher" (fun pid ->
        let msg, src = mover k2 pid 'a' in
        Alcotest.check Util.status "forward" K.Ok
          (K.forward k2 msg ~from_pid:src ~to_pid:worker))
  in
  let k1 = TB.kernel tb 1 in
  Util.run_as_process tb ~host:1 (fun pid ->
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:count;
      Msg.set_no_piggyback msg;
      Alcotest.check Util.status "send" K.Ok (K.send k1 msg disp);
      let got = Vkernel.Mem.read (K.memory k1 pid) ~pos:0 ~len:count in
      Alcotest.(check string) "the worker's bytes" (String.make count 'b')
        (Bytes.to_string got));
  match !seqs with
  | [ a; b ] -> Alcotest.(check int) "both trains carry one seq" a b
  | _ -> Alcotest.fail "expected two remote moves"

let test_forward_chain () =
  (* Two dispatchers in a row across four hosts: sender -> d1 -> d2 ->
     worker; each hop re-targets the sender's retransmission state, and
     the reply still travels in one hop from worker to sender. *)
  let tb = Util.testbed ~hosts:4 () in
  let worker = one_shot_adder (TB.kernel tb 4) ~delta:100 in
  let f2 = ref None in
  let d2 = dispatcher (TB.kernel tb 3) ~target:worker ~forward_status:f2 in
  let f1 = ref None in
  let d1 = dispatcher (TB.kernel tb 2) ~target:d2 ~forward_status:f1 in
  let k1 = TB.kernel tb 1 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Msg.set_u8 msg 4 1;
      Alcotest.check Util.status "send through two dispatchers" K.Ok
        (K.send k1 msg d1);
      Alcotest.(check int) "worker's reply" 101 (Msg.get_u8 msg 4));
  Alcotest.(check (option Util.status)) "hop 1" (Some K.Ok) !f1;
  Alcotest.(check (option Util.status)) "hop 2" (Some K.Ok) !f2;
  (* The worker host sent exactly one packet: the direct reply. *)
  Alcotest.(check int) "worker tx is just the reply" 1
    (K.stats (TB.kernel tb 4)).K.packets_sent

let test_forward_under_loss () =
  (* Forwarding composes with the reliability machinery: drop packets and
     everything still lands exactly once. *)
  let fast =
    { K.default_config with K.retransmit_timeout_ns = Vsim.Time.ms 10 }
  in
  let tb = Util.testbed ~kernel_config:fast ~hosts:3 () in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop 0.15);
  let served = ref 0 in
  let k3 = TB.kernel tb 3 in
  let worker =
    K.spawn k3 ~name:"worker" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k3 msg in
          incr served;
          Msg.set_u8 msg 4 (Msg.get_u8 msg 4 + 10);
          ignore (K.reply k3 msg src);
          loop ()
        in
        loop ())
  in
  let k2 = TB.kernel tb 2 in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"dispatcher" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k2 msg in
          ignore (K.forward k2 msg ~from_pid:src ~to_pid:worker);
          loop ()
        in
        loop ())
  in
  let disp = Vkernel.Pid.make ~host:2 ~local:1 in
  let k1 = TB.kernel tb 1 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      for i = 1 to 15 do
        Msg.set_u8 msg 4 i;
        Alcotest.check Util.status "forwarded send under loss" K.Ok
          (K.send k1 msg disp);
        Alcotest.(check int) "reply value" (i + 10) (Msg.get_u8 msg 4)
      done);
  Alcotest.(check int) "worker served each message exactly once" 15 !served

let test_receive_specific_local () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let order = ref [] in
  let server = ref Vkernel.Pid.nil in
  let srv =
    K.spawn k ~name:"selective" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 20);
        (* Two messages are queued (from A then B); receive B's first. *)
        let msg = Msg.create () in
        let b = Vkernel.Pid.make ~host:1 ~local:3 in
        Alcotest.check Util.status "specific receive" K.Ok
          (K.receive_specific k msg b);
        order := Msg.get_u8 msg 4 :: !order;
        ignore (K.reply k msg b);
        let src = K.receive k msg in
        order := Msg.get_u8 msg 4 :: !order;
        ignore (K.reply k msg src))
  in
  server := srv;
  let spawn_client tag delay =
    ignore
      (K.spawn k ~name:"client" (fun _ ->
           Vsim.Proc.sleep delay;
           let msg = Msg.create () in
           Msg.set_u8 msg 4 tag;
           ignore (K.send k msg srv)))
  in
  spawn_client 1 (Vsim.Time.ms 1) (* local id 2 = A *);
  spawn_client 2 (Vsim.Time.ms 2) (* local id 3 = B *);
  Vworkload.Testbed.run tb;
  Alcotest.(check (list int)) "B first, then A" [ 2; 1 ] (List.rev !order)

let test_receive_specific_dead () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      let ghost = Vkernel.Pid.make ~host:1 ~local:999 in
      Alcotest.check Util.status "dead pid fails fast" K.Nonexistent
        (K.receive_specific k msg ghost))

let test_receive_specific_destroyed_while_waiting () =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let victim =
    K.spawn k ~name:"victim" (fun _ -> Vsim.Proc.sleep (Vsim.Time.sec 10))
  in
  let got = ref None in
  let (_ : Vkernel.Pid.t) =
    K.spawn k ~name:"waiter" (fun _ ->
        let msg = Msg.create () in
        got := Some (K.receive_specific k msg victim))
  in
  let (_ : Vkernel.Pid.t) =
    K.spawn k ~name:"killer" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 5);
        K.destroy k victim)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check (option Util.status)) "waiter unblocked" (Some K.Nonexistent)
    !got

let test_receive_specific_preserves_queue () =
  (* Receiving from B must not lose A's queued message. *)
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let seen = ref [] in
  let srv =
    K.spawn k ~name:"srv" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 10);
        let msg = Msg.create () in
        let b = Vkernel.Pid.make ~host:1 ~local:3 in
        ignore (K.receive_specific k msg b);
        seen := Msg.get_u8 msg 4 :: !seen;
        ignore (K.reply k msg b);
        (* A's message must still be there. *)
        let src = K.receive k msg in
        seen := Msg.get_u8 msg 4 :: !seen;
        ignore (K.reply k msg src);
        ignore src)
  in
  List.iteri
    (fun i tag ->
      ignore
        (K.spawn k ~name:"c" (fun _ ->
             Vsim.Proc.sleep (Vsim.Time.ms (1 + i));
             let msg = Msg.create () in
             Msg.set_u8 msg 4 tag;
             ignore (K.send k msg srv))))
    [ 7; 9 ];
  Vworkload.Testbed.run tb;
  Alcotest.(check (list int)) "both served, specific first" [ 9; 7 ]
    (List.rev !seen)

let suite =
  [
    Alcotest.test_case "forward local->local" `Quick test_forward_local_local;
    Alcotest.test_case "forward local->remote" `Quick
      test_forward_local_remote;
    Alcotest.test_case "forward remote->local" `Quick
      test_forward_remote_local;
    Alcotest.test_case "forward remote->remote" `Quick
      test_forward_remote_remote;
    Alcotest.test_case "reply bypasses dispatcher" `Quick
      test_forward_reply_bypasses_dispatcher;
    Alcotest.test_case "forward without receive" `Quick
      test_forward_without_receive;
    Alcotest.test_case "forward to dead process" `Quick test_forward_to_dead;
    Alcotest.test_case "forward preserves grant" `Quick
      test_forward_with_segment_grant;
    Alcotest.test_case "forward drops the old peer's train" `Quick
      test_forward_drops_train;
    Alcotest.test_case "forward chain (two hops)" `Quick test_forward_chain;
    Alcotest.test_case "forward under loss" `Quick test_forward_under_loss;
    Alcotest.test_case "receive_specific order" `Quick
      test_receive_specific_local;
    Alcotest.test_case "receive_specific dead pid" `Quick
      test_receive_specific_dead;
    Alcotest.test_case "receive_specific vs destroy" `Quick
      test_receive_specific_destroyed_while_waiting;
    Alcotest.test_case "receive_specific preserves queue" `Quick
      test_receive_specific_preserves_queue;
  ]
