(* Stress and fuzz tests: whole-system invariants under randomized load
   and faults. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg

module TB = Vworkload.Testbed

(* Fuzz: random topology, random fault rates, random operation mix; every
   exchange must complete correctly and every transferred byte must be
   exact. *)
let test_ipc_fuzz =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* drop = float_range 0.0 0.15 in
      let* corrupt = float_range 0.0 0.1 in
      let* clients = int_range 1 4 in
      return (seed, drop, corrupt, clients))
  in
  Util.qtest ~count:15 "randomized IPC fuzz: exactness under faults"
    (QCheck.make gen) (fun (seed, drop, corrupt, clients) ->
      (* Deep retry budget: at 25% combined loss the paper's N = 5 would
         legitimately declare failures (~0.44^6 per op); the invariant
         under test is exactness, not give-up policy. *)
      let fast =
        {
          K.default_config with
          K.retransmit_timeout_ns = Vsim.Time.ms 10;
          max_retries = 40;
        }
      in
      let tb =
        Util.testbed
          ~seed:(Int64.of_int (seed + 1))
          ~kernel_config:fast ~hosts:(clients + 1) ()
      in
      Vnet.Medium.set_fault tb.Vworkload.Testbed.medium
        {
          Vnet.Fault.none with
          Vnet.Fault.drop_prob = drop;
          corrupt_prob = corrupt;
        };
      let ks = TB.kernel tb 1 in
      (* Server: echoes, and pushes a 2 KB pattern via MoveTo when the
         message carries a write segment. *)
      let server =
        K.spawn ks ~name:"server" (fun pid ->
            let mem = K.memory ks pid in
            Vkernel.Mem.write mem ~pos:0
              (Bytes.init 2048 (fun i -> Util.pattern (i * 11)));
            let msg = Msg.create () in
            let rec loop () =
              let src = K.receive ks msg in
              (match Msg.writable_segment msg with
              | Some (ptr, len) when len >= 2048 ->
                  ignore (K.move_to ks ~dst_pid:src ~dst:ptr ~src:0 ~count:2048)
              | Some _ | None -> ());
              Msg.set_u8 msg 4 (Msg.get_u8 msg 4 lxor 0x5A);
              ignore (K.reply ks msg src);
              loop ()
            in
            loop ())
      in
      let failures = ref 0 in
      let completed = ref 0 in
      for c = 1 to clients do
        let k = TB.kernel tb (c + 1) in
        ignore
          (K.spawn k ~name:"fuzz-client" (fun pid ->
               let mem = K.memory k pid in
               let rng = Vsim.Rng.split (Vsim.Engine.rng tb.Vworkload.Testbed.eng) in
               for i = 1 to 12 do
                 let msg = Msg.create () in
                 let tag = (i + c) land 0x7F in
                 Msg.set_u8 msg 4 tag;
                 let bulk = Vsim.Rng.bool rng in
                 if bulk then
                   Msg.set_segment msg Msg.Write_only ~ptr:4096 ~len:4096;
                 (match K.send k msg server with
                 | K.Ok ->
                     incr completed;
                     if Msg.get_u8 msg 4 <> tag lxor 0x5A then incr failures;
                     if bulk then begin
                       let got = Vkernel.Mem.read mem ~pos:4096 ~len:2048 in
                       let expect =
                         Bytes.init 2048 (fun i -> Util.pattern (i * 11))
                       in
                       if not (Bytes.equal got expect) then incr failures
                     end
                 | _ -> incr failures)
               done))
      done;
      Vworkload.Testbed.run tb;
      !failures = 0 && !completed = clients * 12)

(* Alien pool invariant: however clients hammer a server, the alien count
   never exceeds the configured maximum. *)
let test_alien_bound () =
  let cfg =
    {
      K.default_config with
      K.max_aliens = 3;
      retransmit_timeout_ns = Vsim.Time.ms 5;
    }
  in
  let tb = Util.testbed ~kernel_config:cfg ~hosts:9 () in
  let ks = TB.kernel tb 1 in
  let server =
    K.spawn ks ~name:"slow" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive ks msg in
          Vsim.Proc.sleep (Vsim.Time.ms 3);
          ignore (K.reply ks msg src);
          loop ()
        in
        loop ())
  in
  let done_ = ref 0 in
  for h = 2 to 9 do
    let k = TB.kernel tb h in
    ignore
      (K.spawn k ~name:"c" (fun _ ->
           let msg = Msg.create () in
           for _ = 1 to 5 do
             ignore (K.send k msg server)
           done;
           incr done_))
  done;
  Vworkload.Testbed.run tb;
  Alcotest.(check int) "all clients eventually served" 8 !done_;
  let s = K.stats ks in
  Alcotest.(check bool) "pool pressure was exercised" true
    (s.K.alien_pool_full > 0)

(* Medium conservation: under heavy random contention, every transmit
   attempt is accounted for: delivered + dropped-by-fault + abandoned. *)
let test_medium_conservation () =
  let eng = Vsim.Engine.create ~seed:99L () in
  let medium = Vnet.Medium.create eng Vnet.Medium.config_3mb in
  Vnet.Medium.set_fault medium (Vnet.Fault.drop 0.1);
  let received = ref 0 in
  let stations = 12 in
  for a = 1 to stations do
    ignore (Vnet.Medium.attach medium ~addr:a ~rx:(fun _ -> incr received))
  done;
  let rng = Vsim.Rng.create 7L in
  let sent = ref 0 in
  for a = 1 to stations do
    for i = 1 to 20 do
      let dst = 1 + ((a + i) mod stations) in
      if dst <> a then begin
        incr sent;
        ignore
          (Vsim.Engine.after eng
             (Vsim.Rng.int rng (Vsim.Time.ms 50))
             (fun () ->
               Vnet.Medium.transmit medium
                 (Vnet.Frame.make ~src:a ~dst ~ethertype:0
                    (Bytes.make (64 + Vsim.Rng.int rng 512) 'x'))))
      end
    done
  done;
  Vsim.Engine.run eng;
  let s = Vnet.Medium.stats medium in
  Alcotest.(check int) "attempted = sent" !sent s.Vnet.Medium.attempted;
  Alcotest.(check int) "delivered + dropped + abandoned = sent" !sent
    (!received + s.Vnet.Medium.dropped + s.Vnet.Medium.excessive);
  Alcotest.(check bool) "contention actually happened" true
    (s.Vnet.Medium.collisions > 0)

(* Many concurrent MoveTos crossing between several hosts: all exact. *)
let test_concurrent_bulk () =
  let tb = Util.testbed ~hosts:6 () in
  let oks = ref 0 in
  (* Hosts 1-3 run movers; hosts 4-6 run granters pairing 1-4, 2-5, 3-6. *)
  for i = 1 to 3 do
    let km = TB.kernel tb i and kg = TB.kernel tb (i + 3) in
    let mover =
      Vkernel.Kernel.spawn km ~name:"mover" (fun pid ->
          let mem = Vkernel.Kernel.memory km pid in
          let msg = Msg.create () in
          let src = Vkernel.Kernel.receive km msg in
          Vkernel.Mem.write mem ~pos:0
            (Bytes.init 16384 (fun j -> Util.pattern (j * i)));
          (match
             Vkernel.Kernel.move_to km ~dst_pid:src ~dst:0 ~src:0 ~count:16384
           with
          | Vkernel.Kernel.Ok -> ()
          | st ->
              Alcotest.failf "mover %d: %s" i
                (Vkernel.Kernel.status_to_string st));
          ignore (Vkernel.Kernel.reply km msg src))
    in
    ignore
      (Vkernel.Kernel.spawn kg ~name:"granter" (fun pid ->
           let mem = Vkernel.Kernel.memory kg pid in
           let msg = Msg.create () in
           Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:32768;
           Msg.set_no_piggyback msg;
           (match Vkernel.Kernel.send kg msg mover with
           | Vkernel.Kernel.Ok -> ()
           | st ->
               Alcotest.failf "granter %d: %s" i
                 (Vkernel.Kernel.status_to_string st));
           let got = Vkernel.Mem.read mem ~pos:0 ~len:16384 in
           let expect = Bytes.init 16384 (fun j -> Util.pattern (j * i)) in
           if Bytes.equal got expect then incr oks))
  done;
  Vworkload.Testbed.run tb;
  Alcotest.(check int) "all three transfers exact" 3 !oks

(* Determinism at system level: identical seeds give bit-identical
   statistics across a faulty multi-client run. *)
let test_system_determinism () =
  let run seed =
    let fast =
      { K.default_config with K.retransmit_timeout_ns = Vsim.Time.ms 10 }
    in
    let tb = Util.testbed ~seed ~kernel_config:fast ~hosts:3 () in
    Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop 0.2);
    let server = Vworkload.Rigs.start_echo (TB.kernel tb 1) in
    for h = 2 to 3 do
      let k = TB.kernel tb h in
      ignore
        (K.spawn k ~name:"c" (fun _ ->
             let msg = Msg.create () in
             for _ = 1 to 20 do
               ignore (K.send k msg server)
             done))
    done;
    Vworkload.Testbed.run tb;
    ( Vsim.Engine.now tb.Vworkload.Testbed.eng,
      Format.asprintf "%a" K.pp_stats (K.stats (TB.kernel tb 1)) )
  in
  let a = run 5L and b = run 5L and c = run 6L in
  Alcotest.(check bool) "same seed, same end time and stats" true (a = b);
  Alcotest.(check bool) "different seed differs" true (a <> c)

let suite =
  [
    test_ipc_fuzz;
    Alcotest.test_case "alien pool bound" `Quick test_alien_bound;
    Alcotest.test_case "medium conservation" `Quick test_medium_conservation;
    Alcotest.test_case "concurrent bulk transfers" `Quick
      test_concurrent_bulk;
    Alcotest.test_case "system determinism" `Quick test_system_determinism;
  ]
