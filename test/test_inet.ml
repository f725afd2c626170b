(* The internetwork: store-and-forward gateways bridging segments. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg
module Topology = Vworkload.Topology
module Gateway = Vnet.Gateway

let two_segment ?seed ?kernel_config ?gateway_config ~h1 ~h2 () =
  Topology.create ?seed ?kernel_config ?gateway_config
    ~segments:
      [
        { Topology.medium_config = Vnet.Medium.config_3mb; seg_hosts = h1 };
        { Topology.medium_config = Vnet.Medium.config_10mb; seg_hosts = h2 };
      ]
    ()


let run_as_process (tp : Topology.t) ~host f =
  let k = Topology.kernel tp host in
  let completed = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k ~name:"test-main" (fun pid ->
        f pid;
        completed := true)
  in
  Topology.run tp;
  if not !completed then Alcotest.fail "test process did not run to completion"

let test_cross_segment_srr () =
  let tp = two_segment ~h1:1 ~h2:1 () in
  let server = Vworkload.Rigs.start_echo (Topology.kernel tp 2) in
  let k1 = Topology.kernel tp 1 in
  run_as_process tp ~host:1 (fun _ ->
      let msg = Msg.create () in
      Msg.set_u8 msg 4 41;
      Alcotest.check
        (Alcotest.testable K.pp_status ( = ))
        "cross-segment send ok" K.Ok (K.send k1 msg server);
      Alcotest.(check int) "echoed across the gateway" 42 (Msg.get_u8 msg 4));
  let s1 = K.stats k1 in
  Alcotest.(check int) "no retransmissions on a clean internetwork" 0
    s1.K.retransmissions;
  let gs = Gateway.stats tp.Topology.gateway in
  Alcotest.(check bool) "request and reply were forwarded" true
    (gs.Gateway.forwarded >= 2)

let test_cross_segment_getpid () =
  let tp = two_segment ~h1:1 ~h2:1 () in
  let k2 = Topology.kernel tp 2 in
  let registered = ref Vkernel.Pid.nil in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"svc" (fun pid ->
        K.set_pid k2 ~logical_id:7 pid K.Any;
        registered := pid;
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        ignore (K.reply k2 msg src))
  in
  let k1 = Topology.kernel tp 1 in
  run_as_process tp ~host:1 (fun _ ->
      match K.get_pid k1 ~logical_id:7 K.Any with
      | None -> Alcotest.fail "GetPid did not cross the gateway"
      | Some pid ->
          Alcotest.(check bool) "resolved the remote registration" true
            (Vkernel.Pid.equal pid !registered);
          let msg = Msg.create () in
          ignore (K.send k1 msg pid));
  let gs = Gateway.stats tp.Topology.gateway in
  Alcotest.(check bool) "the GetPid broadcast was re-broadcast" true
    (gs.Gateway.rebroadcast >= 1);
  (* The gateway hears its own re-broadcast on the far segment and must
     suppress it rather than bounce it back. *)
  Alcotest.(check bool) "duplicate suppression engaged" true
    (gs.Gateway.suppressed >= 1)

(* Duplicate suppression, counted exactly, on two raw segments.  A
   broadcast crosses once and the gateway suppresses its own echo on the
   far segment; a byte-identical resend from the same source inside the
   window is suppressed; the same bytes from another source, or a resend
   that differs in one payload byte, are new broadcasts; a corrupted
   copy is refused at the CRC and leaves the window untouched, so its
   clean resend crosses. *)
let test_dedup_exact () =
  let eng = Vsim.Engine.create () in
  let m0 = Vnet.Medium.create eng Vnet.Medium.config_10mb in
  let m1 = Vnet.Medium.create eng Vnet.Medium.config_3mb in
  let gw = Gateway.create eng ~addr:Topology.gateway_addr [ m0; m1 ] in
  ignore (Vnet.Medium.attach m0 ~addr:1 ~rx:ignore);
  ignore (Vnet.Medium.attach m0 ~addr:3 ~rx:ignore);
  let far = ref 0 and last = ref None in
  ignore
    (Vnet.Medium.attach m1 ~addr:2 ~rx:(fun f ->
         incr far;
         last := Some f));
  let payload = Bytes.init 64 Char.chr in
  let changed = Bytes.copy payload in
  Bytes.set changed 40 'x';
  let step what ?(src = 1) p ~rebroadcast ~suppressed ~crc_drops =
    let before = !far in
    let sent =
      Vnet.Frame.make ~src ~dst:Vnet.Addr.broadcast
        ~ethertype:Vnet.Frame.ethertype_raw p
    in
    Vnet.Medium.transmit m0 sent;
    Vsim.Engine.run eng;
    let gs = Gateway.stats gw in
    let check name = Alcotest.(check int) (what ^ ": " ^ name) in
    check "rebroadcast" rebroadcast gs.Gateway.rebroadcast;
    check "suppressed" suppressed gs.Gateway.suppressed;
    check "crc_drops" crc_drops gs.Gateway.crc_drops;
    check "heard on the far segment" rebroadcast !far;
    (* The gateway forwards the frame it heard, not a rebuilt one. *)
    if !far > before then
      Alcotest.(check bool) (what ^ ": the sent frame crossed") true
        (match !last with Some f -> f == sent | None -> false)
  in
  step "first broadcast" payload ~rebroadcast:1 ~suppressed:1 ~crc_drops:0;
  step "identical resend" payload ~rebroadcast:1 ~suppressed:2 ~crc_drops:0;
  step "same bytes, other source" ~src:3 payload ~rebroadcast:2 ~suppressed:3
    ~crc_drops:0;
  step "one byte differs" changed ~rebroadcast:3 ~suppressed:4 ~crc_drops:0;
  Vnet.Medium.set_fault m0 (Vnet.Fault.corrupt 1.0);
  let fresh = Bytes.make 64 'f' in
  step "corrupted copy" fresh ~rebroadcast:3 ~suppressed:4 ~crc_drops:1;
  Vnet.Medium.set_fault m0 Vnet.Fault.none;
  step "its clean resend" fresh ~rebroadcast:4 ~suppressed:5 ~crc_drops:1;
  Alcotest.(check int) "nothing forwarded as unicast" 0
    (Gateway.stats gw).Gateway.forwarded

(* Two same-length payloads whose [Frame.payload_hash]es collide, found
   by a birthday search over pseudo-random 16-byte payloads (a 30-bit
   hash meets its first collision after about 2^15 of them).  Payload
   [i] is drawn from a generator seeded with [i], so it can be rebuilt
   from its index. *)
let colliding_payloads () =
  let payload i =
    let rng = Vsim.Rng.create (Int64.of_int i) in
    let p = Bytes.create 16 in
    Bytes.set_int64_le p 0 (Vsim.Rng.int64 rng);
    Bytes.set_int64_le p 8 (Vsim.Rng.int64 rng);
    p
  in
  let hash p =
    Vnet.Frame.payload_hash
      (Vnet.Frame.make ~src:1 ~dst:Vnet.Addr.broadcast
         ~ethertype:Vnet.Frame.ethertype_raw p)
  in
  let by_hash = Hashtbl.create 65536 in
  let rec search i =
    if i >= 1 lsl 18 then Alcotest.fail "no hash collision found"
    else
      let p = payload i in
      let h = hash p in
      match Hashtbl.find_opt by_hash h with
      | Some j -> (payload j, p)
      | None ->
          Hashtbl.add by_hash h i;
          search (i + 1)
  in
  search 0

(* Suppression must not depend on the hash: a different broadcast whose
   hash equals one the gateway has seen still crosses. *)
let test_dedup_collision () =
  let a, b = colliding_payloads () in
  Alcotest.(check bool) "payloads differ" false (Bytes.equal a b);
  let eng = Vsim.Engine.create () in
  let m0 = Vnet.Medium.create eng Vnet.Medium.config_10mb in
  let m1 = Vnet.Medium.create eng Vnet.Medium.config_3mb in
  let gw = Gateway.create eng ~addr:Topology.gateway_addr [ m0; m1 ] in
  ignore (Vnet.Medium.attach m0 ~addr:1 ~rx:ignore);
  let far = ref [] in
  ignore
    (Vnet.Medium.attach m1 ~addr:2 ~rx:(fun f ->
         far := f.Vnet.Frame.payload :: !far));
  let frames =
    List.map
      (Vnet.Frame.make ~src:1 ~dst:Vnet.Addr.broadcast
         ~ethertype:Vnet.Frame.ethertype_raw)
      [ a; b ]
  in
  (match frames with
  | [ fa; fb ] ->
      Alcotest.(check int) "hashes collide" (Vnet.Frame.payload_hash fa)
        (Vnet.Frame.payload_hash fb)
  | _ -> assert false);
  List.iter
    (fun f ->
      Vnet.Medium.transmit m0 f;
      Vsim.Engine.run eng)
    frames;
  let gs = Gateway.stats gw in
  Alcotest.(check int) "both rebroadcast" 2 gs.Gateway.rebroadcast;
  Alcotest.(check int) "only the echoes suppressed" 2 gs.Gateway.suppressed;
  Alcotest.(check (list bytes)) "both heard on the far segment, in order"
    [ a; b ] (List.rev !far)

let test_queue_bound () =
  let gateway_config =
    { Gateway.queue_capacity = 1; fixed_ns = Vsim.Time.ms 10; per_byte_ns = 0 }
  in
  let tp = two_segment ~gateway_config ~h1:1 ~h2:1 () in
  let m0 = Topology.medium tp 0 in
  let sent = ref 0 in
  Topology.run_proc tp ~name:"flood" (fun () ->
      for i = 1 to 10 do
        let payload = Bytes.make 32 (Char.chr i) in
        Vnet.Medium.transmit m0
          ~on_sent:(fun () -> incr sent)
          (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:Vnet.Frame.ethertype_raw
             payload)
      done);
  Alcotest.(check int) "all frames left segment 0" 10 !sent;
  let gs = Gateway.stats tp.Topology.gateway in
  (* [received] also counts the gateway hearing its own forwarded frames
     on segment 1 (promiscuous tap), so it is at least ten. *)
  Alcotest.(check bool) "received all ten" true (gs.Gateway.received >= 10);
  Alcotest.(check bool) "bounded queue dropped the overflow" true
    (gs.Gateway.queue_drops >= 7);
  Alcotest.(check int) "drop accounting is conserved" 10
    (gs.Gateway.forwarded + gs.Gateway.queue_drops + gs.Gateway.down_drops)

let test_gateway_crash_restart () =
  let tp = two_segment ~h1:1 ~h2:1 () in
  let gw = tp.Topology.gateway in
  let eng = tp.Topology.eng in
  let m0 = Topology.medium tp 0 in
  let received = ref 0 in
  let m1 = Topology.medium tp 1 in
  (* A raw listener on segment 1 counting what gets through.  Address 9
     is routed to segment 1 so the gateway forwards to it. *)
  ignore
    (Vnet.Medium.attach m1 ~addr:9 ~rx:(fun _ -> incr received));
  Gateway.add_route gw ~host:9 ~segment:1;
  let k_test = Vsim.Eventq.Kind.intern "test.inet" in
  let send_at t_ns i =
    ignore
      (Vsim.Engine.at eng ~kind:k_test t_ns (fun () ->
           Vnet.Medium.transmit m0
             (Vnet.Frame.make ~src:1 ~dst:9
                ~ethertype:Vnet.Frame.ethertype_raw
                (Bytes.make 16 (Char.chr i)))))
  in
  send_at (Vsim.Time.ms 1) 1;
  ignore (Vsim.Engine.at eng ~kind:k_test (Vsim.Time.ms 5) (fun () -> Gateway.crash gw));
  send_at (Vsim.Time.ms 6) 2;
  send_at (Vsim.Time.ms 7) 3;
  ignore (Vsim.Engine.at eng ~kind:k_test (Vsim.Time.ms 10) (fun () -> Gateway.restart gw));
  send_at (Vsim.Time.ms 11) 4;
  Topology.run tp;
  Alcotest.(check int) "frames before the crash and after restart arrive" 2
    !received;
  let gs = Gateway.stats gw in
  Alcotest.(check int) "frames heard while down are dropped and counted" 2
    gs.Gateway.down_drops

(* Satellite regression: each GetPid target has its own RTT estimator, so
   a burst of fast local lookups must not starve the first lookup of a
   service across a slow gateway hop into spurious retransmission. *)
let test_getpid_estimator_per_logical_id () =
  let kernel_config =
    { K.default_config with K.rto_mode = K.Adaptive }
  in
  let gateway_config =
    { Gateway.default_config with Gateway.fixed_ns = Vsim.Time.ms 1 }
  in
  let tp =
    Topology.create ~kernel_config ~gateway_config
      ~segments:
        [
          { Topology.medium_config = Vnet.Medium.config_10mb; seg_hosts = 2 };
          { Topology.medium_config = Vnet.Medium.config_3mb; seg_hosts = 1 };
        ]
      ()
  in
  let lid_near = 11 and lid_far = 12 in
  let serve k lid =
    let (_ : Vkernel.Pid.t) =
      K.spawn k ~name:"svc" (fun pid -> K.set_pid k ~logical_id:lid pid K.Any)
    in
    ()
  in
  serve (Topology.kernel tp 2) lid_near;
  serve (Topology.kernel tp 3) lid_far;
  let k1 = Topology.kernel tp 1 in
  run_as_process tp ~host:1 (fun _ ->
      (* Many same-segment lookups: the near estimator converges on a
         sub-millisecond round trip. *)
      for _ = 1 to 12 do
        (match K.get_pid k1 ~logical_id:lid_near K.Any with
        | Some _ -> ()
        | None -> Alcotest.fail "near GetPid failed");
        K.forget_pid k1 ~logical_id:lid_near
      done;
      (* Let the gateway drain the queued near re-broadcasts so the far
         lookup measures the path, not the backlog. *)
      Vsim.Proc.sleep (Vsim.Time.ms 50);
      let before = (K.stats k1).K.retransmissions in
      (match K.get_pid k1 ~logical_id:lid_far K.Any with
      | Some _ -> ()
      | None -> Alcotest.fail "far GetPid failed");
      let after = (K.stats k1).K.retransmissions in
      (* With the old shared broadcast estimator the fast local samples
         set a timeout well under the cross-gateway round trip and this
         lookup retransmitted spuriously. *)
      Alcotest.(check int) "first far lookup needs no retransmission" 0
        (after - before))

let suite =
  [
    Alcotest.test_case "cross-segment send-receive-reply" `Quick
      test_cross_segment_srr;
    Alcotest.test_case "GetPid crosses the gateway (scoped broadcast)" `Quick
      test_cross_segment_getpid;
    Alcotest.test_case "duplicate suppression counts" `Quick test_dedup_exact;
    Alcotest.test_case "hash collision does not suppress" `Quick
      test_dedup_collision;
    Alcotest.test_case "bounded forwarding queue drops and accounts" `Quick
      test_queue_bound;
    Alcotest.test_case "gateway crash/restart" `Quick
      test_gateway_crash_restart;
    Alcotest.test_case "GetPid estimator is per logical id" `Quick
      test_getpid_estimator_per_logical_id;
  ]
