(* Remote MoveTo/MoveFrom: multi-packet bulk transfer. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg

let kernel_of tb i = (Vworkload.Testbed.host tb i).Vworkload.Testbed.kernel

(* Standard two-host rig: a "granter" on host 1 sends to a "mover" on
   host 2 with a read/write grant on [0, grant_len), then checks a
   predicate when the mover replies. *)
let with_mover ?kernel_config ?(grant_len = 128 * 1024) ~mover_body
    ~granter_check () =
  let tb = Util.testbed ?kernel_config ~hosts:2 () in
  let k1 = kernel_of tb 1 and k2 = kernel_of tb 2 in
  let mover =
    K.spawn k2 ~name:"mover" (fun pid ->
        let mem = K.memory k2 pid in
        let msg = Msg.create () in
        let src = K.receive k2 msg in
        mover_body k2 mem src;
        ignore (K.reply k2 msg src))
  in
  let finished = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"granter" (fun pid ->
        let mem = K.memory k1 pid in
        Util.fill_pattern mem ~pos:0 ~len:grant_len;
        let msg = Msg.create () in
        Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:grant_len;
        Msg.set_no_piggyback msg;
        Alcotest.check Util.status "grant send" K.Ok (K.send k1 msg mover);
        granter_check k1 mem;
        finished := true)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check bool) "granter finished" true !finished;
  (tb, k1, k2)

let test_move_to_integrity () =
  (* Mover writes a 64 KB pattern into the granter's space. *)
  let (_ : _) =
    with_mover
      ~mover_body:(fun k2 mem src ->
        Vkernel.Mem.write mem ~pos:0
          (Bytes.init 65536 (fun i -> Vworkload.Testbed.pattern_byte (i * 3)));
        Alcotest.check Util.status "move_to" K.Ok
          (K.move_to k2 ~dst_pid:src ~dst:4096 ~src:0 ~count:65536))
      ~granter_check:(fun _ mem ->
        let got = Vkernel.Mem.read mem ~pos:4096 ~len:65536 in
        let expect =
          Bytes.init 65536 (fun i -> Vworkload.Testbed.pattern_byte (i * 3))
        in
        Alcotest.(check bool) "64KB intact" true (Bytes.equal got expect))
      ()
  in
  ()

let test_move_from_integrity () =
  (* Mover reads 32 KB of the granter's pattern. *)
  let (_ : _) =
    with_mover
      ~mover_body:(fun k2 mem src ->
        Alcotest.check Util.status "move_from" K.Ok
          (K.move_from k2 ~src_pid:src ~dst:0 ~src:8192 ~count:32768);
        let got = Vkernel.Mem.read mem ~pos:0 ~len:32768 in
        let expect =
          Bytes.init 32768 (fun i -> Vworkload.Testbed.pattern_byte (8192 + i))
        in
        Alcotest.(check bool) "32KB intact" true (Bytes.equal got expect))
      ~granter_check:(fun _ _ -> ())
      ()
  in
  ()

let test_move_beyond_grant () =
  let (_ : _) =
    with_mover ~grant_len:4096
      ~mover_body:(fun k2 _ src ->
        Alcotest.check Util.status "write past grant" K.No_permission
          (K.move_to k2 ~dst_pid:src ~dst:0 ~src:0 ~count:8192);
        Alcotest.check Util.status "read past grant" K.No_permission
          (K.move_from k2 ~src_pid:src ~dst:0 ~src:0 ~count:8192))
      ~granter_check:(fun _ _ -> ())
      ()
  in
  ()

let test_move_to_dead_process () =
  let tb = Util.testbed ~hosts:2 () in
  let k2 = kernel_of tb 2 in
  let ghost = Vkernel.Pid.make ~host:1 ~local:999 in
  Util.run_as_process tb ~host:2 (fun _ ->
      Alcotest.check Util.status "move to ghost" K.Nonexistent
        (K.move_to k2 ~dst_pid:ghost ~dst:0 ~src:0 ~count:1024))

let test_zero_byte_move () =
  let (_ : _) =
    with_mover
      ~mover_body:(fun k2 _ src ->
        Alcotest.check Util.status "empty move_to" K.Ok
          (K.move_to k2 ~dst_pid:src ~dst:0 ~src:0 ~count:0))
      ~granter_check:(fun _ _ -> ())
      ()
  in
  ()

let test_odd_sizes =
  (* Transfers that are not multiples of the packet size must still be
     exact. *)
  Util.qtest ~count:20 "odd-size transfers are exact"
    QCheck.(int_range 1 5000)
    (fun count ->
      let ok = ref false in
      let (_ : _) =
        with_mover
          ~mover_body:(fun k2 mem src ->
            Vkernel.Mem.write mem ~pos:0
              (Bytes.init count (fun i -> Vworkload.Testbed.pattern_byte (i + 13)));
            ignore (K.move_to k2 ~dst_pid:src ~dst:0 ~src:0 ~count))
          ~granter_check:(fun _ mem ->
            let got = Vkernel.Mem.read mem ~pos:0 ~len:count in
            let expect =
              Bytes.init count (fun i -> Vworkload.Testbed.pattern_byte (i + 13))
            in
            ok := Bytes.equal got expect)
          ()
      in
      !ok)

(* Two movers on different hosts stream into one kernel under the same
   transaction sequence number.  The receiver names an inbound MoveTo by
   (mover host, seq), so the two trains must stay apart and both land
   intact.  Hosts 2 and 3 run the same program, so their kernels hand
   out equal sequence numbers, which the test checks first. *)
let test_move_to_same_seq_two_hosts () =
  let tb = Util.testbed ~hosts:3 () in
  let k1 = kernel_of tb 1 and len = 8192 in
  let image h =
    Bytes.init len (fun i -> Vworkload.Testbed.pattern_byte ((i * h) + h))
  in
  let done_seqs = ref [] in
  Vsim.Trace.attach tb.Vworkload.Testbed.eng (fun _ ev ->
      match ev with
      | Vsim.Event.Move_done { host; seq; _ } ->
          done_seqs := (host, seq) :: !done_seqs
      | _ -> ());
  let mover h =
    let k = kernel_of tb h in
    K.spawn k ~name:"mover" (fun pid ->
        let msg = Msg.create () in
        let src = K.receive k msg in
        Vkernel.Mem.write (K.memory k pid) ~pos:0 (image h);
        Alcotest.check Util.status "move_to" K.Ok
          (K.move_to k ~dst_pid:src ~dst:0 ~src:0 ~count:len);
        ignore (K.reply k msg src))
  in
  let landed = ref [] in
  let granter mover_pid =
    ignore
      (K.spawn k1 ~name:"granter" (fun pid ->
           let msg = Msg.create () in
           Msg.set_segment msg Msg.Read_write ~ptr:0 ~len;
           Msg.set_no_piggyback msg;
           Alcotest.check Util.status "grant send" K.Ok
             (K.send k1 msg mover_pid);
           let got = Vkernel.Mem.read (K.memory k1 pid) ~pos:0 ~len in
           landed := (Vkernel.Pid.host mover_pid, got) :: !landed))
  in
  granter (mover 2);
  granter (mover 3);
  Vworkload.Testbed.run tb;
  (match List.sort compare !done_seqs with
  | [ (2, s2); (3, s3) ] -> Alcotest.(check int) "same seq" s2 s3
  | l ->
      Alcotest.failf "expected one MoveTo per mover, saw %d" (List.length l));
  List.iter
    (fun h ->
      match List.assoc_opt h !landed with
      | Some got ->
          Alcotest.(check bool)
            (Printf.sprintf "host %d's image intact" h)
            true
            (Bytes.equal got (image h))
      | None -> Alcotest.failf "granter of host %d never finished" h)
    [ 2; 3 ]

let test_move_packet_count () =
  (* A 64 KB MoveTo should use total/1024 data packets + 1 ack and no
     retransmissions on a clean network. *)
  let _, k1, k2 =
    with_mover
      ~mover_body:(fun k2 mem src ->
        Vkernel.Mem.fill mem ~pos:0 ~len:65536 'd';
        ignore (K.move_to k2 ~dst_pid:src ~dst:0 ~src:0 ~count:65536))
      ~granter_check:(fun _ _ -> ())
      ()
  in
  let s2 = K.stats k2 in
  let s1 = K.stats k1 in
  Alcotest.(check int) "no retrans" 0 s2.K.retransmissions;
  Alcotest.(check int) "no naks" 0 s1.K.gap_naks_sent;
  (* 64 data packets + 1 grant-reply + 1 reply ack-ish: mover sent
     64 data + 1 reply = 65; granter sent 1 send + 1 data ack = 2. *)
  Alcotest.(check int) "mover packets" 65 s2.K.packets_sent;
  Alcotest.(check int) "granter packets" 2 s1.K.packets_sent

let suite =
  [
    Alcotest.test_case "move_to integrity (64KB)" `Quick test_move_to_integrity;
    Alcotest.test_case "move_from integrity (32KB)" `Quick
      test_move_from_integrity;
    Alcotest.test_case "move beyond grant" `Quick test_move_beyond_grant;
    Alcotest.test_case "move to dead process" `Quick test_move_to_dead_process;
    Alcotest.test_case "zero-byte move" `Quick test_zero_byte_move;
    test_odd_sizes;
    Alcotest.test_case "move packet counts" `Quick test_move_packet_count;
    Alcotest.test_case "move_to same seq from two hosts" `Quick
      test_move_to_same_seq_two_hosts;
  ]
