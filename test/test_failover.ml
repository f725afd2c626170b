(* The sharded file service: name-based shard routing, standby takeover
   (crash-stop failover), and the cross-segment checker workloads. *)

module Schedule = Vcheck.Schedule
module Checker = Vcheck.Checker
module Scenario = Checker.Scenario
module Workload = Vcheck.Workload
module Names = Vfs.Names

let invariants vs =
  List.map (fun (v : Checker.violation) -> v.Checker.invariant) vs

let failover = Option.get (Scenario.find "failover")
let inet_crash = Option.get (Scenario.find "inet-crash")

let schedule_of str =
  match Schedule.of_string str with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let test_names_longest_prefix () =
  let names =
    Names.make
      [
        { Names.prefix = "a/"; logical_id = Names.shard_logical_id 0 };
        { Names.prefix = "a/deep/"; logical_id = Names.shard_logical_id 1 };
        { Names.prefix = "b/"; logical_id = Names.shard_logical_id 2 };
      ]
  in
  Alcotest.(check int) "short prefix" (Names.shard_logical_id 0)
    (Names.shard_of names "a/file");
  Alcotest.(check int) "longest prefix wins" (Names.shard_logical_id 1)
    (Names.shard_of names "a/deep/file");
  Alcotest.(check int) "other shard" (Names.shard_logical_id 2)
    (Names.shard_of names "b/file");
  Alcotest.(check int) "unmatched falls through to the default"
    Vfs.Protocol.fileserver_logical_id
    (Names.shard_of names "elsewhere")

let test_failover_baseline_clean () =
  let r = Workload.run Workload.failover () in
  Alcotest.(check bool) "completed" true r.completed;
  Alcotest.(check (list string)) "all ops ran" (Workload.ops Workload.failover)
    (List.map (fun (o : Workload.op_result) -> o.op) r.ops);
  Alcotest.(check bool) "no takeover without a crash" false r.extra.took_over;
  Alcotest.(check (list string)) "no violations" []
    (invariants (failover.run []).violations)

let test_failover_baseline_deterministic () =
  let digest () = Format.asprintf "@[<v>%t@]" (failover.run []).pp_digest in
  Alcotest.(check string) "two runs, one digest" (digest ()) (digest ())

(* The headline property: crash-stop the shard-A primary early and the
   standby must take the shard over — the client finishes every
   operation and no acknowledged write is lost. *)
let test_primary_crash_stop_takeover () =
  let s = schedule_of "crash@5" in
  let r = Workload.run Workload.failover ~fault:(Schedule.to_fault s) () in
  Alcotest.(check int) "primary crashed" 1 r.crashes;
  Alcotest.(check bool) "standby took over" true r.extra.took_over;
  Alcotest.(check bool) "client completed" true r.completed;
  Alcotest.(check (list int)) "no acked write lost" []
    r.extra.recovery.acked_lost;
  Alcotest.(check (list string)) "no violations" []
    (invariants (failover.run s).violations)

(* Regression lock: a depth-2 schedule — one dropped frame, then the
   primary gone for good — found clean by the sweep; keep it that way. *)
let test_failover_depth2_repro () =
  Alcotest.(check (list string)) "drop@3 crash@9 stays clean" []
    (invariants (failover.run (schedule_of "drop@3 crash@9")).violations)

let test_failover_mini_sweep () =
  match Checker.explore failover ~depth:1 ~limit:5 () with
  | Error vs ->
      Alcotest.failf "baseline violated: %s"
        (String.concat "; " (invariants vs))
  | Ok res ->
      Alcotest.(check int) "ran the requested prefix" 5
        res.Checker.schedules_run;
      Alcotest.(check bool) "every crash point survived" true
        (res.Checker.failure = None)

let test_inet_baseline_clean () =
  let r = Workload.run Workload.inet () in
  Alcotest.(check bool) "completed" true r.completed;
  Alcotest.(check (list string)) "all ops ran" (Workload.ops Workload.inet)
    (List.map (fun (o : Workload.op_result) -> o.op) r.ops);
  Alcotest.(check (list string)) "no violations" []
    (invariants (inet_crash.run []).violations)

(* Regression lock: a gateway outage mid-workload — the retransmission
   machinery must ride out the partition until the gateway returns. *)
let test_inet_gateway_outage_repro () =
  let s = schedule_of "restart@6+50000us" in
  let r = Workload.run Workload.inet ~fault:(Schedule.to_fault s) () in
  Alcotest.(check int) "gateway crashed" 1 r.crashes;
  Alcotest.(check int) "gateway restarted" 1 r.restarts;
  Alcotest.(check (list string)) "no violations" []
    (invariants (inet_crash.run s).violations)

let test_inet_mini_sweep () =
  match Checker.explore inet_crash ~depth:1 ~limit:4 () with
  | Error vs ->
      Alcotest.failf "baseline violated: %s"
        (String.concat "; " (invariants vs))
  | Ok res ->
      Alcotest.(check int) "ran the requested prefix" 4
        res.Checker.schedules_run;
      Alcotest.(check bool) "every gateway crash point survived" true
        (res.Checker.failure = None)

let test_crash_only_enumeration_shape () =
  let actions = Vnet.Fault.[ Drop; Duplicate ] in
  let all =
    Schedule.enumerate_host ~host:Crash ~depth:2 ~frames:4 ~actions
    |> List.of_seq
  in
  Alcotest.(check int) "count" (4 + (4 * 3 * 2)) (List.length all);
  List.iter
    (fun s ->
      Alcotest.(check bool) "no restart entries" true
        (List.for_all
           (fun e ->
             match e.Schedule.action with
             | Schedule.Restart _ -> false
             | Schedule.Crash | Schedule.Net _ -> true)
           s);
      Alcotest.(check int) "exactly one crash entry" 1
        (List.length
           (List.filter
              (fun e -> e.Schedule.action = Schedule.Crash)
              s)))
    all

let suite =
  [
    Alcotest.test_case "shard map resolves longest prefix" `Quick
      test_names_longest_prefix;
    Alcotest.test_case "failover baseline is clean" `Quick
      test_failover_baseline_clean;
    Alcotest.test_case "failover baseline is deterministic" `Quick
      test_failover_baseline_deterministic;
    Alcotest.test_case "crash-stop primary: standby takes over" `Quick
      test_primary_crash_stop_takeover;
    Alcotest.test_case "depth-2 failover reproducer stays clean" `Quick
      test_failover_depth2_repro;
    Alcotest.test_case "failover mini-sweep (crash-stop points)" `Slow
      test_failover_mini_sweep;
    Alcotest.test_case "inet baseline is clean" `Quick test_inet_baseline_clean;
    Alcotest.test_case "gateway outage reproducer stays clean" `Quick
      test_inet_gateway_outage_repro;
    Alcotest.test_case "inet mini-sweep (gateway crash points)" `Slow
      test_inet_mini_sweep;
    Alcotest.test_case "crash-only enumeration shape" `Quick
      test_crash_only_enumeration_shape;
  ]
