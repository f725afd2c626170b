(* vbench: the repository benchmark.  See README.md in this directory.

     vbench list
     vbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                [--json-out FILE] [--trace-out FILE]
     vbench compare --parent FILE... --change FILE...

   [run] prints every metric as "name value unit" and ends with one JSON
   line {"correct", "attempted", "failed", "metrics"}; it exits 1 when an
   output was wrong or an invariant broke. *)

open Cmdliner
module V = Vbench_lib

let workload_arg =
  let names = List.map (fun (w : V.Workloads.t) -> (w.name, w)) V.Workloads.all in
  Arg.(required & opt (some (enum names)) None & info [ "workload" ] ~docv:"NAME"
         ~doc:"Workload to run (see $(b,vbench list)).")

let run_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
                    ~doc:"Seed for the op scripts and the engine. 1 is the default; \
                          2 and 3 are held out for confirming claims.") in
  let seconds = Arg.(value & opt float 5.0 & info [ "seconds" ] ~docv:"S"
                       ~doc:"Wall-clock seconds of measured reps (at least one rep).") in
  let trace = Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
                   & info [ "trace" ] ~docv:"0|1"
                       ~doc:"1 adds one traced rep and reports the per-layer metrics.") in
  let json_out = Arg.(value & opt (some string) None & info [ "json-out" ] ~docv:"FILE"
                        ~doc:"Append this run, with per-rep values and quartiles, to a results file.") in
  let trace_out = Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
                         ~doc:"Write the traced rep's op spans as JSON lines.") in
  let run w seed seconds trace json_out trace_out =
    let r = V.Runner.run ~seconds ~trace ~seed w in
    V.Runner.print_lines r;
    Option.iter (fun f -> V.Runner.append_json f (V.Runner.to_json r)) json_out;
    (match (trace_out, r.V.Runner.traced) with
    | Some f, Some tr -> V.Optrace.write_jsonl tr.V.Runner.trace f
    | Some _, None -> prerr_endline "--trace-out needs --trace 1; nothing written"
    | None, _ -> ());
    print_endline (V.Runner.summary_json r);
    if V.Runner.correct r then 0 else 1
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload and print its metrics.")
    Term.(const run $ workload_arg $ seed $ seconds $ trace $ json_out $ trace_out)

let list_cmd =
  let list () =
    List.iter (fun (w : V.Workloads.t) -> Printf.printf "%-20s %s\n" w.name w.why) V.Workloads.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"Print the workload names.") Term.(const list $ const ())

let compare_cmd =
  let files name doc = Arg.(non_empty & opt_all file [] & info [ name ] ~docv:"FILE" ~doc) in
  let compare parent change =
    let load fs = List.concat_map V.Compare.load fs in
    let rows = V.Compare.rows ~parent:(load parent) ~change:(load change) in
    V.Compare.pp_rows Format.std_formatter rows;
    if List.exists (fun r -> r.V.Compare.verdict = V.Compare.Regressed) rows then 1 else 0
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Judge change runs against parent runs, metric by metric.")
    Term.(const compare $ files "parent" "Results file of the parent commit (repeatable)."
          $ files "change" "Results file of the change (repeatable).")

let () =
  exit (Cmd.eval' (Cmd.group (Cmd.info "vbench" ~doc:"The V simulator benchmark")
                     [ run_cmd; list_cmd; compare_cmd ]))
