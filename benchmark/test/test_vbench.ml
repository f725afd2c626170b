(* The benchmark's own guarantees, on every workload at its tiny size:
   the simulated results are a pure function of the seed, the seed
   actually reaches the workloads that draw from it, tracing does not
   perturb the simulation, and BENCHMARK.json names what the runs
   print. *)

module V = Vbench_lib

let tiny ?(trace = false) ~seed w = V.Runner.run ~size:V.Workloads.Tiny ~seconds:0.0 ~trace ~seed w

let each f () = List.iter f V.Workloads.all

let same_seed_same_simulation (w : V.Workloads.t) =
  let a = tiny ~seed:1 w and b = tiny ~seed:1 w in
  Alcotest.(check (list string)) (w.name ^ " problems") [] (V.Runner.problems a);
  Alcotest.(check string) (w.name ^ " sim JSON") (V.Runner.sim_json a) (V.Runner.sim_json b)

let traced_equals_untraced (w : V.Workloads.t) =
  let r = tiny ~trace:true ~seed:1 w in
  Alcotest.(check (list string)) (w.name ^ " problems") [] (V.Runner.problems r);
  let sim (s : V.Probe.sample) = s.sim in
  let traced = Option.get r.V.Runner.traced in
  Alcotest.(check (list (pair string (float 0.0))))
    (w.name ^ " traced sim_*")
    (sim r.V.Runner.warmup) (sim traced.V.Runner.sample)

let seed_reaches_workload name () =
  let w = Option.get (V.Workloads.find name) in
  let a = tiny ~seed:1 w and b = tiny ~seed:2 w in
  Alcotest.(check bool) (name ^ " differs under seed 2") true
    (V.Runner.sim_json a <> V.Runner.sim_json b)

let benchmark_json_matches () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let doc = Result.get_ok (Vobs.Json.parse (really_input_string ic (in_channel_length ic))) in
  close_in ic;
  let entries key =
    match Vobs.Json.member key doc with
    | Some (Vobs.Json.List l) ->
        List.map
          (fun e ->
            match (Vobs.Json.member "name" e, Vobs.Json.member "unit" e, Vobs.Json.member "better" e) with
            | Some (Str n), Some (Str u), Some (Str b) -> (n, u, b)
            | _ -> Alcotest.fail (key ^ ": malformed entry"))
          l
    | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)
  in
  let expected names =
    List.map
      (fun n ->
        let m = Option.get (V.Metric.find n) in
        (n, m.V.Metric.unit, V.Metric.better_to_string m.V.Metric.better))
      names
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (expected V.Metric.listed_end_to_end) (entries "end_to_end");
  Alcotest.check triple "per_layer" (expected V.Metric.listed_per_layer) (entries "per_layer");
  let bounds =
    match Vobs.Json.member "end_to_end" doc with
    | Some (Vobs.Json.List l) ->
        List.map
          (fun e ->
            match Vobs.Json.member "bound" e with
            | Some (Float b) -> b
            | _ -> Alcotest.fail "end_to_end: malformed bound")
          l
    | _ -> []
  in
  Alcotest.(check (list (float 0.0))) "end_to_end bounds"
    (List.map (fun n -> (Option.get (V.Metric.find n)).V.Metric.bound) V.Metric.listed_end_to_end)
    bounds;
  let workloads =
    match Vobs.Json.member "workloads" doc with
    | Some (List l) ->
        List.filter_map
          (fun e ->
            match (Vobs.Json.member "name" e, Vobs.Json.member "why" e) with
            | Some (Str n), Some (Str why) -> Some (n, why)
            | _ -> None)
          l
    | _ -> []
  in
  Alcotest.(check (list (pair string string))) "workloads"
    (List.map (fun (w : V.Workloads.t) -> (w.name, w.why)) V.Workloads.all)
    workloads

let () =
  Alcotest.run "vbench"
    [
      ( "vbench",
        [
          Alcotest.test_case "same seed, byte-identical sim JSON" `Quick (each same_seed_same_simulation);
          Alcotest.test_case "traced sim equals untraced" `Quick (each traced_equals_untraced);
          Alcotest.test_case "seed reaches cluster_read_mostly" `Quick
            (seed_reaches_workload "cluster_read_mostly");
          Alcotest.test_case "seed reaches boot_storm" `Quick (seed_reaches_workload "boot_storm");
          Alcotest.test_case "BENCHMARK.json names the printed metrics" `Quick benchmark_json_matches;
        ] );
    ]
