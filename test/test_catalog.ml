(* The benchmark result catalog (lib/obs/catalog.ml) and the engine
   profiler (lib/sim/profile.ml): round-trips, loader errors, exact gate
   verdicts, and same-seed determinism. *)

module Cat = Vobs.Catalog
module J = Vobs.Json

let m ?units ?better v = Cat.metric ?units ?better v

let sample_cells () =
  [
    Cat.cell ~bench:"ipc"
      ~params:[ ("mhz", J.Int 10); ("net", J.Int 3) ]
      ~digest:"deadbeef00000000"
      [ ("elapsed_ms", m ~units:"ms" 2.54); ("trials", m ~units:"count" 100.0) ];
    Cat.cell ~bench:"sweep"
      ~params:[ ("drop", J.Str "0.05") ]
      [
        ("median_ms", m ~units:"ms" 41.5);
        ("rate", m ~units:"per_s" ~better:Cat.Higher 120.0);
      ];
  ]

(* --- round-trip ------------------------------------------------------ *)

let test_roundtrip () =
  let t = Cat.of_cells (sample_cells ()) in
  let s = Cat.to_string t in
  match Cat.of_string s with
  | Error e -> Alcotest.failf "of_string: %s" e
  | Ok t' ->
      Alcotest.(check string) "re-serialization identical" s (Cat.to_string t');
      let r = Cat.compare ~baseline:t ~current:t' in
      Alcotest.(check bool) "self-compare ok" true (Cat.report_ok r);
      Alcotest.(check int) "no regressions" 0 r.Cat.regress;
      Alcotest.(check int) "no improvements" 0 r.Cat.improve;
      Alcotest.(check int) "no missing" 0 r.Cat.missing;
      Alcotest.(check int) "no new" 0 r.Cat.fresh;
      Alcotest.(check int) "all metrics pass" 4 r.Cat.pass

let test_file_roundtrip () =
  let t = Cat.of_cells (sample_cells ()) in
  let path = Filename.temp_file "catalog" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Cat.save path t;
      match Cat.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok t' ->
          Alcotest.(check string) "file round-trip" (Cat.to_string t)
            (Cat.to_string t'))

let test_bad_lines () =
  (match Cat.of_line "not json at all {" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed line accepted");
  match Cat.of_line "{\"v\":99,\"bench\":\"x\",\"params\":{},\"metrics\":{}}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema version accepted"

(* Every writer emits "better"; a line without it is damaged, not a
   lower-is-better metric. *)
let test_missing_better () =
  match
    Cat.of_line
      "{\"v\":1,\"bench\":\"x\",\"params\":{},\"metrics\":{\"m\":{\"value\":1.0}}}"
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "metric without \"better\" accepted"

(* Blank lines count toward the line an error names. *)
let test_error_line_number () =
  let good = Cat.to_line (List.hd (sample_cells ())) in
  match Cat.of_string (good ^ "\n\n\n" ^ "not json\n") with
  | Ok _ -> Alcotest.fail "malformed catalog accepted"
  | Error e ->
      let want = "line 4: " in
      Alcotest.(check string) "physical line number" want
        (String.sub e 0 (min (String.length e) (String.length want)))

(* --- exact gate ------------------------------------------------------ *)

let one_cell ?(better = Cat.Lower) v =
  Cat.of_cells [ Cat.cell ~bench:"b" ~params:[] [ ("m", m ~better v) ] ]

let verdict ~base ~cur ?(better = Cat.Lower) () =
  let r =
    Cat.compare ~baseline:(one_cell ~better base)
      ~current:(one_cell ~better cur)
  in
  (r.Cat.pass, r.Cat.improve, r.Cat.regress)

let test_verdicts () =
  let v = Alcotest.(triple int int int) in
  Alcotest.(check v) "identical value passes" (1, 0, 0)
    (verdict ~base:2.539 ~cur:2.539 ());
  (* The catalog prints 12 significant digits; what it cannot show is
     not a change. *)
  Alcotest.(check v) "difference beyond 12 digits passes" (1, 0, 0)
    (verdict ~base:2.539 ~cur:(2.539 *. (1.0 +. 1e-14)) ());
  Alcotest.(check v) "lower-better: 0.1% worse regresses" (0, 0, 1)
    (verdict ~base:100.0 ~cur:100.1 ());
  Alcotest.(check v) "higher-better: 0.1% worse regresses" (0, 0, 1)
    (verdict ~base:100.0 ~cur:99.9 ~better:Cat.Higher ());
  Alcotest.(check v) "lower-better: a drop improves" (0, 1, 0)
    (verdict ~base:100.0 ~cur:99.9 ());
  Alcotest.(check v) "higher-better: a gain improves" (0, 1, 0)
    (verdict ~base:100.0 ~cur:100.1 ~better:Cat.Higher ())

let test_missing_and_new () =
  let both = Cat.of_cells (sample_cells ()) in
  let only_ipc = Cat.of_cells [ List.hd (sample_cells ()) ] in
  let r = Cat.compare ~baseline:both ~current:only_ipc in
  Alcotest.(check int) "missing cell counted" 1 r.Cat.missing;
  Alcotest.(check bool) "missing cell gates" false (Cat.report_ok r);
  let r' = Cat.compare ~baseline:only_ipc ~current:both in
  Alcotest.(check int) "new cell counted" 1 r'.Cat.fresh;
  Alcotest.(check bool) "new cell does not gate" true (Cat.report_ok r')

let test_metric_shape_change () =
  let base =
    Cat.of_cells [ Cat.cell ~bench:"b" ~params:[] [ ("gone", m 1.0) ] ]
  in
  let cur =
    Cat.of_cells [ Cat.cell ~bench:"b" ~params:[] [ ("other", m 1.0) ] ]
  in
  let r = Cat.compare ~baseline:base ~current:cur in
  Alcotest.(check bool) "metric shape change gates" false (Cat.report_ok r)

let test_digest_change () =
  let with_digest d =
    Cat.of_cells
      [ Cat.cell ~bench:"b" ~params:[] ~digest:d [ ("m", m 1.0) ] ]
  in
  let r =
    Cat.compare ~baseline:(with_digest "aaaa") ~current:(with_digest "bbbb")
  in
  Alcotest.(check int) "digest change counted" 1 r.Cat.digest_changes;
  Alcotest.(check bool) "digest change does not gate" true (Cat.report_ok r)

let test_digest_string () =
  (* FNV-1a is stable: a changed catalog digest must mean changed input. *)
  Alcotest.(check bool) "digest deterministic" true
    (Cat.digest_string "hello" = Cat.digest_string "hello");
  Alcotest.(check bool) "digest discriminates" true
    (Cat.digest_string "hello" <> Cat.digest_string "hellp")

(* --- profiler -------------------------------------------------------- *)

(* Run the remote S-R-R rig with profiling enabled on every engine it
   creates; return the profile. *)
let profiled_srr () =
  let prof = Vsim.Profile.create () in
  let prev = Vsim.Engine.get_create_hook () in
  Vsim.Engine.set_create_hook
    (Some
       (fun eng ->
         ignore (Vsim.Engine.enable_profiling ~profile:prof eng);
         match prev with Some h -> h eng | None -> ()));
  Fun.protect
    ~finally:(fun () -> Vsim.Engine.set_create_hook prev)
    (fun () ->
      ignore
        (Vworkload.Rigs.srr_remote ~trials:10
           ~cpu_model:Vhw.Cost_model.sun_10mhz
           ~medium_config:Vnet.Medium.config_3mb ()));
  prof

let test_profiler_determinism () =
  let p1 = profiled_srr () in
  let p2 = profiled_srr () in
  Alcotest.(check bool) "events fired" true (Vsim.Profile.events p1 > 0);
  Alcotest.(check int) "event totals equal" (Vsim.Profile.events p1)
    (Vsim.Profile.events p2);
  let shape p =
    List.map
      (fun (kind, e) -> (kind, e.Vsim.Profile.fires))
      (Vsim.Profile.entries p)
  in
  Alcotest.(check (list (pair string int)))
    "per-kind fires equal" (shape p1) (shape p2);
  (* The rig exercises the network and the CPU scheduler, so the kind
     taxonomy must show both. *)
  Alcotest.(check bool) "net.deliver seen" true
    (Vsim.Profile.fires p1 "net.deliver" > 0);
  Alcotest.(check bool) "cpu.grant seen" true
    (Vsim.Profile.fires p1 "cpu.grant" > 0)

let test_profiler_merge () =
  let p1 = profiled_srr () in
  let p2 = profiled_srr () in
  let agg = Vsim.Profile.aggregate [ p1; p2 ] in
  Alcotest.(check int) "aggregate sums events"
    (Vsim.Profile.events p1 + Vsim.Profile.events p2)
    (Vsim.Profile.events agg);
  Alcotest.(check int) "aggregate sums per-kind fires"
    (2 * Vsim.Profile.fires p1 "net.deliver")
    (Vsim.Profile.fires agg "net.deliver")

(* --- histogram quantiles --------------------------------------------- *)

let test_quantiles () =
  let h = Vsim.Stat.Histogram.create ~bounds:[| 1.0; 10.0; 100.0 |] () in
  for _ = 1 to 90 do Vsim.Stat.Histogram.add h 5.0 done;
  for _ = 1 to 10 do Vsim.Stat.Histogram.add h 50.0 done;
  let q p = Vsim.Stat.Histogram.quantile h p in
  Alcotest.(check bool) "p50 in the 90% bucket" true
    (q 0.5 > 1.0 && q 0.5 <= 10.0);
  Alcotest.(check bool) "p95 in the tail bucket" true
    (q 0.95 > 10.0 && q 0.95 <= 100.0);
  Alcotest.(check bool) "quantiles monotone" true (q 0.5 <= q 0.95);
  Alcotest.(check bool) "empty histogram gives nan" true
    (Float.is_nan
       (Vsim.Stat.Histogram.quantile
          (Vsim.Stat.Histogram.create ~bounds:[| 1.0 |] ())
          0.5))

let test_metrics_json_quantiles () =
  let reg = Vobs.Metrics.create () in
  for i = 1 to 100 do
    Vobs.Metrics.observe reg ~host:1 "lat" (float_of_int i)
  done;
  let s = J.to_string (Vobs.Metrics.to_json reg) in
  List.iter
    (fun key ->
      let needle = "\"" ^ key ^ "\":" in
      let n = String.length needle in
      let rec found i =
        i + n <= String.length s
        && (String.sub s i n = needle || found (i + 1))
      in
      Alcotest.(check bool) (key ^ " present") true (found 0))
    [ "p50"; "p95"; "p99" ]

let suite =
  [
    Alcotest.test_case "catalog line round-trip" `Quick test_roundtrip;
    Alcotest.test_case "catalog file round-trip" `Quick test_file_roundtrip;
    Alcotest.test_case "malformed lines rejected" `Quick test_bad_lines;
    Alcotest.test_case "metric without better rejected" `Quick
      test_missing_better;
    Alcotest.test_case "errors name the physical line" `Quick
      test_error_line_number;
    Alcotest.test_case "exact verdicts" `Quick test_verdicts;
    Alcotest.test_case "missing gates, new does not" `Quick
      test_missing_and_new;
    Alcotest.test_case "metric shape change gates" `Quick
      test_metric_shape_change;
    Alcotest.test_case "digest change counted, not gating" `Quick
      test_digest_change;
    Alcotest.test_case "digest string stable" `Quick test_digest_string;
    Alcotest.test_case "profiler deterministic across same-seed runs" `Quick
      test_profiler_determinism;
    Alcotest.test_case "profiler aggregate sums" `Quick test_profiler_merge;
    Alcotest.test_case "histogram quantiles" `Quick test_quantiles;
    Alcotest.test_case "metrics JSON carries quantiles" `Quick
      test_metrics_json_quantiles;
  ]
