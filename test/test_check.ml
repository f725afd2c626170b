(* The vcheck protocol checker: schedule language, enumeration, the
   scripted workload's invariants, and the shrinker. *)

module Schedule = Vcheck.Schedule
module Checker = Vcheck.Checker
module Scenario = Checker.Scenario
module Workload = Vcheck.Workload
module Fault = Vnet.Fault

let schedule = Alcotest.testable Schedule.pp ( = )
let scenario name = Option.get (Scenario.find name)

let schedule_of str =
  match Schedule.of_string str with Ok s -> s | Error e -> Alcotest.fail e

let test_baseline_clean () =
  let r = Workload.run Workload.net () in
  Alcotest.(check bool) "completed" true r.completed;
  Alcotest.(check (list string)) "all ops ran" (Workload.ops Workload.net)
    (List.map (fun (o : Workload.op_result) -> o.op) r.ops);
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (fun (v : Checker.violation) -> v.Checker.invariant)
       (Scenario.net.run []).violations)

let test_baseline_deterministic () =
  let digest () = Format.asprintf "@[<v>%t@]" (Scenario.net.run []).pp_digest in
  Alcotest.(check string) "two runs, one digest" (digest ()) (digest ())

let test_depth1_drop_sweep_clean () =
  match Checker.sweep ~depth:1 ~actions:[ Fault.Drop ] () with
  | Error _ -> Alcotest.fail "baseline violated"
  | Ok res ->
      Alcotest.(check bool) "covered every frame" true
        (res.Checker.schedules_run = res.Checker.baseline_frames);
      Alcotest.(check bool) "no violation found" true
        (res.Checker.failure = None)

let test_schedule_round_trip () =
  let s =
    Schedule.
      [
        { frame = 3; action = Net Fault.Drop };
        { frame = 7; action = Net Fault.Duplicate };
        { frame = 9; action = Net (Fault.Delay (Vsim.Time.ms 15)) };
        { frame = 12; action = Net Fault.Reorder };
      ]
  in
  match Schedule.of_string (Schedule.to_string s) with
  | Error e -> Alcotest.fail e
  | Ok s' -> Alcotest.check schedule "round trip" s s'

let test_schedule_parse_errors () =
  let bad =
    [
      "drop3"; "drop@0"; "explode@4"; "delay@2"; "delay@2+0us"; "crash@0";
      "crash@"; "crash@x"; "restart@2"; "restart@2+0us"; "restart@2+xus";
      "restart@0+50000us";
    ]
  in
  List.iter
    (fun str ->
      match Schedule.of_string str with
      | Ok _ -> Alcotest.failf "%S parsed" str
      | Error _ -> ())
    bad

let test_crash_schedule_round_trip () =
  let s =
    Schedule.
      [
        { frame = 2; action = Net Fault.Drop };
        { frame = 4; action = Crash };
        { frame = 9; action = Restart (Vsim.Time.ms 50) };
      ]
  in
  Alcotest.(check string) "printed form" "drop@2 crash@4 restart@9+50000us"
    (Schedule.to_string s);
  match Schedule.of_string (Schedule.to_string s) with
  | Error e -> Alcotest.fail e
  | Ok s' -> Alcotest.check schedule "round trip" s s'

let test_crash_enumeration_shape () =
  let actions = Fault.[ Drop; Duplicate ] in
  let all =
    Schedule.enumerate_host ~host:(Restart (Vsim.Time.ms 50)) ~depth:2
      ~frames:4 ~actions
    |> List.of_seq
  in
  (* 4 crash points, then 4 x 3 other frames x 2 actions pairs. *)
  Alcotest.(check int) "count" (4 + (4 * 3 * 2)) (List.length all);
  let keys = List.map Schedule.to_string all in
  Alcotest.(check int) "duplicate-free"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun s ->
      Alcotest.(check int) "exactly one crash entry" 1
        (List.length
           (List.filter
              (fun e ->
                match e.Schedule.action with
                | Schedule.Restart _ | Schedule.Crash -> true
                | Schedule.Net _ -> false)
              s));
      match s with
      | [ a; b ] ->
          Alcotest.(check bool) "pairs strictly increasing" true
            (a.Schedule.frame < b.Schedule.frame)
      | _ -> ())
    all

let test_repro_file_round_trip () =
  let s =
    Schedule.
      [ { frame = 13; action = Net Fault.Drop }; { frame = 21; action = Net Fault.Drop } ]
  in
  let vs = [ { Checker.invariant = "op-result"; detail = "move-from failed" } ] in
  let text = Checker.repro_file_contents (scenario "inet") s vs in
  (match Schedule.of_string text with
  | Error e -> Alcotest.fail e
  | Ok s' -> Alcotest.check schedule "comments stripped, schedule kept" s s');
  match Checker.load_repro text with
  | Error e -> Alcotest.fail e
  | Ok (sc, s') ->
      Alcotest.(check string) "scenario named by the file" "inet" sc.name;
      Alcotest.check schedule "schedule" s s'

(* A reproducer replays against the scenario it names, never a silent
   default: an explicit scenario must agree with the file, and a file
   that names none but scripts host events needs one. *)
let test_repro_scenario_rules () =
  let loaded ?scenario text =
    match Checker.load_repro ?scenario text with
    | Ok (sc, s) -> Ok (sc.Scenario.name, Schedule.to_string s)
    | Error _ -> Error ()
  in
  let result = Alcotest.(result (pair string string) unit) in
  let named = Checker.repro_file_contents (scenario "shared-crash") [] [] in
  Alcotest.check result "named, no flag" (Ok ("shared-crash", ""))
    (loaded named);
  Alcotest.check result "named, agreeing flag" (Ok ("shared-crash", ""))
    (loaded ~scenario:(scenario "shared-crash") named);
  Alcotest.check result "named, disagreeing flag" (Error ())
    (loaded ~scenario:Scenario.crash named);
  Alcotest.check result "unknown name" (Error ())
    (loaded "# scenario: nosuch\ndrop@3\n");
  Alcotest.check result "headerless net defaults to net" (Ok ("net", "drop@3"))
    (loaded "drop@3\n");
  Alcotest.check result "headerless net runs the flag" (Ok ("inet", "drop@3"))
    (loaded ~scenario:(scenario "inet") "drop@3\n");
  Alcotest.check result "headerless crash needs a flag" (Error ())
    (loaded "restart@4+50000us\n");
  Alcotest.check result "headerless crash with a flag"
    (Ok ("crash", "restart@4+50000us"))
    (loaded ~scenario:Scenario.crash "restart@4+50000us\n")

(* One pass over the registry: unique names that [find] resolves, clean
   baselines, and a short sweep whose JSON does not depend on the domain
   count. *)
let test_scenario_registry () =
  let names = List.map (fun (sc : Scenario.t) -> sc.name) Scenario.all in
  Alcotest.(check int) "seven scenarios" 7 (List.length names);
  Alcotest.(check int) "names unique" 7
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun (sc : Scenario.t) ->
      Alcotest.(check bool) ("find " ^ sc.name) true
        (match Scenario.find sc.name with
        | Some sc' -> sc' == sc
        | None -> false);
      Alcotest.(check (list string)) (sc.name ^ " baseline clean") []
        (List.map
           (fun (v : Checker.violation) -> v.invariant)
           (sc.run []).violations);
      let json domains =
        match Checker.explore sc ~depth:1 ~limit:8 ~domains () with
        | Error _ -> Alcotest.failf "%s baseline violated" sc.name
        | Ok r -> Checker.report_to_json r
      in
      Alcotest.(check string) (sc.name ^ " JSON domain-independent")
        (json 1) (json 2))
    Scenario.all;
  Alcotest.(check bool) "unknown name" true
    (Option.is_none (Scenario.find "nosuch"))

let test_enumeration_shape () =
  let actions = Fault.[ Drop; Duplicate ] in
  let all =
    Schedule.enumerate ~depth:2 ~frames:5 ~actions |> List.of_seq
  in
  (* 5 frames x 2 actions singletons, then C(5,2) x 2^2 pairs. *)
  Alcotest.(check int) "count" ((5 * 2) + (10 * 4)) (List.length all);
  let keys = List.map Schedule.to_string all in
  Alcotest.(check int) "duplicate-free"
    (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (function
      | [ a; b ] ->
          Alcotest.(check bool) "pairs strictly increasing" true
            (a.Schedule.frame < b.Schedule.frame)
      | _ -> ())
    all

let test_shrinker_minimizes () =
  (* Synthetic oracle: a violation iff the schedule still contains both
     drop@5 and dup@9.  The shrinker must strip the two bystanders. *)
  let culprits =
    Schedule.
      [ { frame = 5; action = Net Fault.Drop }; { frame = 9; action = Net Fault.Duplicate } ]
  in
  let runs = ref 0 in
  let run s =
    incr runs;
    if List.for_all (fun c -> List.mem c s) culprits then
      [ { Checker.invariant = "synthetic"; detail = "both culprits present" } ]
    else []
  in
  let noisy =
    Schedule.
      [
        { frame = 2; action = Net Fault.Reorder };
        { frame = 5; action = Net Fault.Drop };
        { frame = 7; action = Net (Fault.Delay 1000) };
        { frame = 9; action = Net Fault.Duplicate };
      ]
  in
  Alcotest.check schedule "minimal reproducer" culprits
    (Checker.shrink ~run noisy);
  Alcotest.(check bool) "bounded work" true (!runs <= 20)

let test_injected_violation_caught () =
  (* Starve the run of events: the termination invariant must fire, and a
     schedule replayed under the same budget reports it identically. *)
  let vs = (Scenario.net.run ~max_events:100 []).violations in
  Alcotest.(check bool) "termination violation: budget exhausted" true
    (List.exists
       (fun (v : Checker.violation) ->
         v.Checker.invariant = "termination"
         && String.starts_with ~prefix:"event budget exhausted" v.detail)
       vs);
  match Checker.sweep ~max_events:100 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "sweep accepted a non-terminating baseline"

(* The [vsim check] command line itself, run as a subprocess. *)
let vsim ?(stdout = Filename.null) args =
  Sys.command
    (Filename.quote_command "../bin/vsim.exe" ("check" :: args) ~stdout
       ~stderr:Filename.null)

let with_file contents f =
  let path = Filename.temp_file "vcheck" ".repro" in
  Out_channel.with_open_text path (fun oc -> output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let usage_error = 124

let test_cli_depth_enum () =
  Alcotest.(check int) "--depth 3" usage_error (vsim [ "--depth"; "3" ]);
  Alcotest.(check int) "--depth 0" usage_error (vsim [ "--depth"; "0" ])

let test_cli_limit_positive () =
  Alcotest.(check int) "--limit 0" usage_error (vsim [ "--limit"; "0" ]);
  Alcotest.(check int) "--limit -5" usage_error (vsim [ "--limit"; "-5" ])

let test_cli_unknown_scenario () =
  Alcotest.(check int) "--scenario nosuch" usage_error
    (vsim [ "--scenario"; "nosuch" ])

let test_cli_repro_scenario () =
  let text =
    Checker.repro_file_contents (scenario "inet") (schedule_of "drop@3") []
  in
  with_file text (fun path ->
      with_file "" (fun out ->
          Alcotest.(check int) "replays its own scenario" 0
            (vsim ~stdout:out [ "--repro"; path ]);
          let digest = In_channel.with_open_text out In_channel.input_all in
          Alcotest.(check bool) "internetwork digest" true
            (String.split_on_char '\n' digest
            |> List.exists (String.starts_with ~prefix:"gateway: ")));
      Alcotest.(check int) "agreeing --scenario" 0
        (vsim [ "--repro"; path; "--scenario"; "inet" ]);
      Alcotest.(check int) "disagreeing --scenario" 2
        (vsim [ "--repro"; path; "--scenario"; "net" ]));
  with_file "restart@4+50000us\n" (fun path ->
      Alcotest.(check int) "headerless crash, no --scenario" 2
        (vsim [ "--repro"; path ]);
      Alcotest.(check int) "headerless crash, --scenario crash" 0
        (vsim [ "--repro"; path; "--scenario"; "crash" ]))

(* tools/parity.sh replays every committed reproducer: one named after
   each scenario, plus the net page-train recovery paths
   (net-moveto-gap, net-moveto-ack, net-movefrom-req, net-movefrom-gap).
   Each must name its scenario (SCENARIO.repro or SCENARIO-CASE.repro),
   script at least one fault and replay clean. *)
let test_committed_repros () =
  let names = List.map (fun (sc : Scenario.t) -> sc.name) Scenario.all in
  let files =
    List.filter_map
      (fun f -> Filename.chop_suffix_opt ~suffix:".repro" f)
      (List.sort compare (Array.to_list (Sys.readdir "repro")))
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ ".repro committed") true
        (List.mem name files))
    names;
  List.iter
    (fun name ->
      let path = Filename.concat "repro" (name ^ ".repro") in
      let text = In_channel.with_open_text path In_channel.input_all in
      match Checker.load_repro text with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok (sc, s) ->
          let scn = sc.Scenario.name in
          Alcotest.(check bool) (path ^ " names its scenario") true
            (String.equal name scn
            || String.starts_with ~prefix:(scn ^ "-") name
               && not (List.mem name names));
          Alcotest.(check bool) (path ^ " scripts a fault") true (s <> []);
          let o = sc.run s in
          Alcotest.(check (list string))
            (path ^ " replays clean") []
            (List.map
               (fun (v : Checker.violation) -> v.invariant)
               o.violations))
    files

(* The committed failing reproducers take the error paths a clean run
   never does; tools/parity.sh diffs their digests and traces.  Each
   names its scenario (the file's own name), still violates, and shows
   a failed op in its digest. *)
let test_failing_repros () =
  let dir = Filename.concat "repro" "failing" in
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check (list string)) "committed failing repros"
    [ "crash.repro"; "inet-crash.repro"; "shared-crash.repro" ] files;
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      let text = In_channel.with_open_text path In_channel.input_all in
      match Checker.load_repro text with
      | Error e -> Alcotest.failf "%s: %s" path e
      | Ok (sc, s) ->
          Alcotest.(check string) (path ^ " scenario")
            (Filename.chop_suffix file ".repro") sc.Scenario.name;
          let o = sc.run s in
          Alcotest.(check bool) (path ^ " violates") true (o.violations <> []);
          (* The gateway never returns: the run quiesces with the client
             stopped after its failed open, which is not an exhausted
             budget. *)
          if sc.name = "inet-crash" then
            Alcotest.(check (list string)) (path ^ " termination")
              [ "run quiesced with client inet-client unfinished after op 3" ]
              (List.filter_map
                 (fun (v : Checker.violation) ->
                   if v.invariant = "termination" then Some v.detail else None)
                 o.violations);
          let digest = Format.asprintf "@[<v>%t@]" o.pp_digest in
          Alcotest.(check bool) (path ^ " digest has a failed op") true
            (String.split_on_char '\n' digest
            |> List.exists (fun line ->
                   String.starts_with ~prefix:"op " line
                   && List.mem "FAILED" (String.split_on_char ' ' line))))
    files

let suite =
  [
    Alcotest.test_case "baseline clean" `Quick test_baseline_clean;
    Alcotest.test_case "baseline deterministic" `Quick
      test_baseline_deterministic;
    Alcotest.test_case "depth-1 drop sweep clean" `Slow
      test_depth1_drop_sweep_clean;
    Alcotest.test_case "schedule round trip" `Quick test_schedule_round_trip;
    Alcotest.test_case "schedule parse errors" `Quick
      test_schedule_parse_errors;
    Alcotest.test_case "crash schedule round trip" `Quick
      test_crash_schedule_round_trip;
    Alcotest.test_case "crash enumeration shape" `Quick
      test_crash_enumeration_shape;
    Alcotest.test_case "repro file round trip" `Quick
      test_repro_file_round_trip;
    Alcotest.test_case "repro scenario rules" `Quick test_repro_scenario_rules;
    Alcotest.test_case "scenario registry" `Quick test_scenario_registry;
    Alcotest.test_case "cli --depth is 1 or 2" `Quick test_cli_depth_enum;
    Alcotest.test_case "cli --limit is positive" `Quick test_cli_limit_positive;
    Alcotest.test_case "cli unknown scenario" `Quick test_cli_unknown_scenario;
    Alcotest.test_case "cli repro scenario" `Quick test_cli_repro_scenario;
    Alcotest.test_case "enumeration shape" `Quick test_enumeration_shape;
    Alcotest.test_case "shrinker minimizes" `Quick test_shrinker_minimizes;
    Alcotest.test_case "injected violation caught" `Quick
      test_injected_violation_caught;
    Alcotest.test_case "committed repros" `Quick test_committed_repros;
    Alcotest.test_case "failing repros" `Quick test_failing_repros;
  ]
