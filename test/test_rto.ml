(* The adaptive retransmission layer: Jacobson RTT estimation, Karn's
   rule, exponential backoff and the per-destination failure detector. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg

module TB = Vworkload.Testbed
let adaptive_config = { K.default_config with K.rto_mode = K.Adaptive }

let test_estimator_converges () =
  let tb = Util.testbed ~kernel_config:adaptive_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 in
  let server = Vworkload.Rigs.start_echo (TB.kernel tb 2) in
  let before = K.rto_estimate_ns k1 ~dst_host:2 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      for _ = 1 to 20 do
        Alcotest.check Util.status "send" K.Ok (K.send k1 msg server)
      done);
  let after = K.rto_estimate_ns k1 ~dst_host:2 in
  (* The no-sample estimate is deliberately conservative; after twenty
     clean exchanges the RTO tracks the sub-millisecond round trip. *)
  Alcotest.(check bool) "seed is conservative" true (before >= Vsim.Time.ms 10);
  Alcotest.(check bool) "estimate converged" true (after < Vsim.Time.ms 5);
  Alcotest.(check bool) "estimate positive" true (after > 0);
  Alcotest.(check int) "no retransmissions on a clean wire" 0
    (K.stats k1).K.retransmissions

let test_karn_rule () =
  (* Frame 1 — the client's very first Send — is dropped, so the exchange
     completes via a retransmission and Karn's rule must reject its
     round trip as an RTT sample.  The following clean exchange finally
     seeds the estimator. *)
  let tb = Util.testbed ~kernel_config:adaptive_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop_nth [ 1 ]);
  let server = Vworkload.Rigs.start_echo (TB.kernel tb 2) in
  let tainted = ref 0 and clean = ref 0 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Alcotest.check Util.status "retransmitted exchange" K.Ok
        (K.send k1 msg server);
      tainted := K.rto_estimate_ns k1 ~dst_host:2;
      Alcotest.check Util.status "clean exchange" K.Ok (K.send k1 msg server);
      clean := K.rto_estimate_ns k1 ~dst_host:2);
  Alcotest.(check bool) "tainted round trip rejected" true
    (!tainted >= Vsim.Time.ms 10);
  Alcotest.(check bool) "clean sample accepted" true (!clean < !tainted);
  Alcotest.(check int) "one retransmission" 1 (K.stats k1).K.retransmissions

let test_failure_detector () =
  let tb = Util.testbed ~kernel_config:adaptive_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      let void = Vkernel.Pid.make ~host:77 ~local:1 in
      Alcotest.check Util.status "first exhaustion is transient" K.Retryable
        (K.send k1 msg void);
      Alcotest.check Util.status "second exhaustion reads dead" K.Dead
        (K.send k1 msg void);
      Alcotest.check Util.status "stays dead" K.Dead (K.send k1 msg void));
  let s = K.stats k1 in
  Alcotest.(check int) "suspected exactly once" 1 s.K.hosts_suspected;
  Alcotest.(check bool) "timeouts were counted" true (s.K.timeouts_fired > 0)

let test_success_resets_detector () =
  (* A completed exchange clears the consecutive-failure count: two
     exhaustions separated by a success never trip the detector. *)
  let tb = Util.testbed ~kernel_config:adaptive_config ~hosts:2 () in
  let k1 = TB.kernel tb 1 in
  let server = Vworkload.Rigs.start_echo (TB.kernel tb 2) in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      let ghost = Vkernel.Pid.make ~host:2 ~local:999 in
      Alcotest.check Util.status "nack does not hurt liveness" K.Nonexistent
        (K.send k1 msg ghost);
      Alcotest.check Util.status "live host still fine" K.Ok
        (K.send k1 msg server));
  Alcotest.(check int) "never suspected" 0 (K.stats k1).K.hosts_suspected

let test_determinism_under_loss () =
  (* Two identically seeded runs under random loss with adaptive timers
     (and their jittered backoff) must agree exactly. *)
  let run () =
    let tb =
      Util.testbed ~seed:424242L ~kernel_config:adaptive_config ~hosts:2 ()
    in
    let k1 = TB.kernel tb 1 in
    Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop 0.15);
    let server = Vworkload.Rigs.start_echo (TB.kernel tb 2) in
    let elapsed = ref 0 in
    Util.run_as_process tb ~host:1 (fun _ ->
        let msg = Msg.create () in
        let t0 = Vsim.Engine.now (K.engine k1) in
        for _ = 1 to 40 do
          Alcotest.check Util.status "send" K.Ok (K.send k1 msg server)
        done;
        elapsed := Vsim.Engine.now (K.engine k1) - t0);
    (!elapsed, K.stats k1)
  in
  let e1, s1 = run () in
  let e2, s2 = run () in
  Alcotest.(check int) "elapsed identical" e1 e2;
  Alcotest.(check int) "retransmissions identical" s1.K.retransmissions
    s2.K.retransmissions;
  Alcotest.(check int) "timeouts identical" s1.K.timeouts_fired
    s2.K.timeouts_fired

let test_adaptive_recovers_faster () =
  (* The point of the estimator: after convergence, a lost packet is
     detected in ~1.5x RTT instead of the fixed 200 ms default.  Compare
     one scripted loss under both modes. *)
  let run cfg =
    let tb = Util.testbed ~kernel_config:cfg ~hosts:2 () in
    let k1 = TB.kernel tb 1 in
    let server = Vworkload.Rigs.start_echo (TB.kernel tb 2) in
    let elapsed = ref 0 in
    Util.run_as_process tb ~host:1 (fun _ ->
        let msg = Msg.create () in
        (* Warm the estimator on a clean wire... *)
        for _ = 1 to 10 do
          Alcotest.check Util.status "warm" K.Ok (K.send k1 msg server)
        done;
        (* ...then lose the next request packet (frame 21). *)
        Vnet.Medium.set_fault tb.Vworkload.Testbed.medium
          (Vnet.Fault.drop_nth [ 21 ]);
        let t0 = Vsim.Engine.now (K.engine k1) in
        Alcotest.check Util.status "lossy exchange" K.Ok (K.send k1 msg server);
        elapsed := Vsim.Engine.now (K.engine k1) - t0);
    !elapsed
  in
  let fixed = run K.default_config in
  let adaptive = run adaptive_config in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive (%d ns) beats fixed (%d ns)" adaptive fixed)
    true
    (adaptive < fixed)

let test_exhaustion_every_exchange () =
  (* Every exchange kind against a silent (crashed) peer, run twice: each
     attempt fires [max_retries + 1] expiries and [max_retries]
     retransmissions of its kind; the first exhaustion is transient and
     the second trips the failure detector.  GetPid surfaces no status, so
     only the detector shows its second exhaustion. *)
  let cfg = K.default_config in
  let cases =
    [
      ("send", fun k peer -> Some (K.send k (Msg.create ()) peer));
      ( "move-to",
        fun k peer -> Some (K.move_to k ~dst_pid:peer ~dst:0 ~src:0 ~count:2048)
      );
      ( "move-from",
        fun k peer ->
          Some (K.move_from k ~src_pid:peer ~dst:0 ~src:0 ~count:2048) );
      ( "getpid",
        fun k _ ->
          Alcotest.(check bool) "getpid finds nothing" true
            (K.get_pid k ~logical_id:404 K.Remote = None);
          None );
    ]
  in
  List.iter
    (fun (kind, op) ->
      let tb = Util.testbed ~hosts:2 () in
      let k1 = TB.kernel tb 1 in
      K.crash (TB.kernel tb 2);
      let peer = Vkernel.Pid.make ~host:2 ~local:1 in
      let retransmits = ref 0 and backoffs = ref 0 in
      Vsim.Trace.attach tb.Vworkload.Testbed.eng (fun _ ev ->
          match ev with
          | Vsim.Event.Retransmit r when r.kind = kind -> incr retransmits
          | Vsim.Event.Backoff b when b.kind = kind -> incr backoffs
          | _ -> ());
      let attempt name expect_status suspected =
        retransmits := 0;
        backoffs := 0;
        (match op k1 peer with
        | Some st ->
            Alcotest.check Util.status (kind ^ " " ^ name) expect_status st
        | None -> ());
        Alcotest.(check int) (kind ^ " retransmits") cfg.K.max_retries
          !retransmits;
        Alcotest.(check int) (kind ^ " backoffs") (cfg.K.max_retries + 1)
          !backoffs;
        Alcotest.(check int) (kind ^ " suspected") suspected
          (K.stats k1).K.hosts_suspected
      in
      Util.run_as_process tb ~host:1 (fun _ ->
          attempt "first exhaustion" K.Retryable 0;
          attempt "second exhaustion" K.Dead 1))
    cases

let suite =
  [
    Alcotest.test_case "estimator converges" `Quick test_estimator_converges;
    Alcotest.test_case "karn's rule" `Quick test_karn_rule;
    Alcotest.test_case "failure detector" `Quick test_failure_detector;
    Alcotest.test_case "success resets detector" `Quick
      test_success_resets_detector;
    Alcotest.test_case "determinism under loss" `Quick
      test_determinism_under_loss;
    Alcotest.test_case "adaptive recovers faster" `Quick
      test_adaptive_recovers_faster;
    Alcotest.test_case "exhaustion in every exchange" `Quick
      test_exhaustion_every_exchange;
  ]
