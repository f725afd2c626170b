(* The benchmark harness: regenerates every table and measured claim of
   the paper's evaluation (Tables 4-1, 5-1, 5-2, 6-1, 6-2, 6-3 and the
   measured statements of Sections 5.4, 6.1, 7 and 8), plus baseline and
   ablation comparisons.  Every experiment also records its headline
   numbers as catalog cells (lib/obs/catalog.ml); the harness can write
   them out as a BENCH_*.json catalog and diff a fresh run against a
   committed baseline — the CI regression gate.  Every number it records
   is simulated or counted, so the comparison is exact; host speed is the
   repository benchmark's business (benchmark/).  See doc/BENCHMARKS.md.

   Usage:
     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- table_6_3    # a single experiment
     dune exec bench/main.exe -- all --json-out BENCH_2026-10-17.json
     dune exec bench/main.exe -- compare --baseline BENCH_2026-10-17.json \
         [--json-out fresh.json]
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- all --domains 4   # fan grids across domains *)

let experiments =
  [
    ("table_4_1", Experiments.table_4_1);
    ("table_5_1", Experiments.table_5_1);
    ("table_5_2", Experiments.table_5_2);
    ("section_5_4", Experiments.section_5_4);
    ("table_6_1", Experiments.table_6_1);
    ("section_6_1_segments", Experiments.section_6_1_segments);
    ("table_6_2", Experiments.table_6_2);
    ("section_6_crossover", Experiments.section_6_crossover);
    ("table_6_3", Experiments.table_6_3);
    ("section_7_capacity", Experiments.section_7_capacity);
    ("section_7_exec", Experiments.section_7_exec);
    ("section_7_multi_server", Experiments.section_7_multi_server);
    ("section_8_10mb", Experiments.section_8_10mb);
    ("cache_crossover", Experiments.cache_crossover);
    ("baseline_comparison", Experiments.baseline_comparison);
    ("ablations", Experiments.ablations);
    ("span_decomposition", Experiments.span_decomposition);
    ("loss_sweep", Experiments.loss_sweep);
    ("server_scaling", Experiments.server_scaling);
    ("check_sweep", Experiments.check_sweep);
    ("journal_overhead", Experiments.journal_overhead);
    ("lease_coherence", Experiments.lease_coherence);
    ("gateway_penalty", Experiments.gateway_penalty);
    ("boot_storm", Experiments.boot_storm);
    ("profile", Experiments.profile);
  ]

(* Run one experiment with a fresh metrics registry attached to every
   engine it creates on the main domain, then stamp a digest onto the
   catalog cells it recorded.  Engines created inside grid jobs are
   captured by per-job registries whichever domain the job runs on
   (Experiments.grid replaces the create hook for the job's duration)
   and reduced to per-job digests returned in grid order — so the
   stamped digest is a pure function of the experiment and seed,
   byte-identical for any --domains value.  Two runs of the same
   experiment at the same seed produce the same digest; a digest change
   flags that the run's full metric set shifted even where the headline
   numbers did not. *)
let domains = ref Vsim.Pool.default_domains

let run_experiment f =
  let before = Experiments.cell_count () in
  ignore (Experiments.take_job_digests ());
  let reg = Vobs.Metrics.create () in
  let prev = Vsim.Engine.get_create_hook () in
  Vsim.Engine.set_create_hook
    (Some
       (fun eng ->
         Vobs.Metrics.attach reg eng;
         match prev with Some h -> h eng | None -> ()));
  Fun.protect ~finally:(fun () -> Vsim.Engine.set_create_hook prev) f;
  let digest =
    Vobs.Catalog.digest_string
      (String.concat "|"
         (Vobs.Json.to_string (Vobs.Metrics.to_json reg)
         :: Experiments.take_job_digests ()))
  in
  Experiments.stamp_digest ~since:before digest

let run_all () =
  Format.printf
    "Reproduction of: Cheriton & Zwaenepoel, \"The Distributed V Kernel \
     and its Performance for Diskless Workstations\" (SOSP 1983)@.";
  Format.printf
    "All times are simulated; every table prints sim (paper) pairs.@.";
  List.iter (fun (_, f) -> run_experiment f) experiments

let current_catalog () = Vobs.Catalog.of_cells (Experiments.cells ())

let save_catalog file =
  Vobs.Catalog.save file (current_catalog ());
  Format.eprintf "wrote %d catalog cells to %s@."
    (Experiments.cell_count ()) file

let compare_cmd ~baseline ~json_out =
  run_all ();
  Option.iter save_catalog json_out;
  match Vobs.Catalog.load baseline with
  | Error e ->
      Format.eprintf "cannot load baseline %s: %s@." baseline e;
      exit 2
  | Ok base ->
      let report =
        Vobs.Catalog.compare ~baseline:base ~current:(current_catalog ())
      in
      Format.printf "@.%a@." Vobs.Catalog.pp_report report;
      if not (Vobs.Catalog.report_ok report) then exit 1

type opts = { json_out : string option; baseline : string option }

let usage () =
  Format.eprintf
    "usage: bench [all | NAME...] [--json-out FILE] [--domains N]@.       \
     bench compare --baseline FILE [--json-out FILE]@.       bench --list@.";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse names o = function
    | [] -> (List.rev names, o)
    | "--json-out" :: f :: rest -> parse names { o with json_out = Some f } rest
    | "--baseline" :: f :: rest -> parse names { o with baseline = Some f } rest
    | "--domains" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n >= 1 ->
            domains := n;
            Experiments.set_domains n
        | Some _ | None ->
            Format.eprintf "--domains: expected a positive integer, got %S@." v;
            exit 2);
        parse names o rest
    | a :: _ when String.length a > 2 && String.sub a 0 2 = "--"
                  && a <> "--list" ->
        Format.eprintf "unknown or incomplete option %s@." a;
        usage ()
    | a :: rest -> parse (a :: names) o rest
  in
  let names, o = parse [] { json_out = None; baseline = None } args in
  match names with
  | [ "--list" ] ->
      List.iter (fun (name, _) -> print_endline name) experiments
  | [ "compare" ] -> (
      match o.baseline with
      | None ->
          Format.eprintf "compare requires --baseline FILE@.";
          usage ()
      | Some baseline -> compare_cmd ~baseline ~json_out:o.json_out)
  | [] | [ "all" ] ->
      run_all ();
      Option.iter save_catalog o.json_out
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> run_experiment f
          | None ->
              Format.eprintf
                "unknown experiment %S (use --list to see them)@." name;
              exit 1)
        names;
      Option.iter save_catalog o.json_out
