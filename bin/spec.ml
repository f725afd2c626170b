(* The shared vsim flag spec.

   Every subcommand takes the same execution/observability flags —
   --seed, --domains, --trace-out, --trace-topics, --metrics,
   --metrics-out, --profile — parsed by one term and applied by one
   wrapper, so they behave identically everywhere instead of each
   subcommand hand-rolling its own subset. *)

open Cmdliner

type t = {
  seed : int64 option;  (* engine seed override; None = Engine.default_seed *)
  domains : int;  (* Pool worker count for sweep-shaped commands *)
  trace_out : string option;
  topics : string list;
  metrics : bool;
  metrics_out : string option;
  profile : bool;
}

let docs = "COMMON OPTIONS"

let term =
  let seed =
    Arg.(value & opt (some int64) None
         & info [ "seed" ] ~docs ~docv:"SEED"
             ~doc:"Engine seed.  Defaults to the fixed built-in constant; \
                   every simulation is deterministic either way, a \
                   different seed just selects a different reproducible \
                   run.")
  in
  let domains =
    Arg.(value & opt int Vsim.Pool.default_domains
         & info [ "domains" ] ~docs ~docv:"N"
             ~doc:"Worker domains for sweep execution (vsim check, \
                   capacity sweeps).  Results are byte-identical for any \
                   value; $(docv) > 1 only changes wall-clock time.  \
                   Accepted by every subcommand for flag uniformity.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docs ~docv:"FILE"
             ~doc:"Write the structured event trace to $(docv): JSON lines \
                   by default, or a Chrome trace_event array (loadable in \
                   chrome://tracing or Perfetto) when $(docv) ends in .json.")
  in
  let topics =
    Arg.(value & opt (list string) []
         & info [ "trace-topics" ] ~docs ~docv:"LIST"
             ~doc:"Comma-separated event topics to keep (kernel, net, cpu, \
                   disk, fs, span).  Default: all.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ] ~docs
             ~doc:"Print the per-host metrics registry after the run.")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docs ~docv:"FILE"
             ~doc:"Write the per-host metrics registry to $(docv) as JSON \
                   (histograms carry derived p50/p95/p99).")
  in
  let profile =
    Arg.(value & flag
         & info [ "profile" ] ~docs
             ~doc:"Profile the simulation engine: per-event-kind fire \
                   counts (deterministic, stdout) plus wall-clock buckets \
                   (stderr).")
  in
  Term.(const (fun seed domains trace_out topics metrics metrics_out profile ->
            { seed; domains; trace_out; topics; metrics; metrics_out;
              profile })
        $ seed $ domains $ trace_out $ topics $ metrics $ metrics_out
        $ profile)

(* Instrument every engine the command creates: spans first (so their
   Span_open/Span_close events reach the sinks attached after them), then
   the trace file sink, then the metrics registry.  Engines get
   consecutive run indices so multi-engine commands stay separable in one
   trace file.  The create hook is domain-local, so engines built by Pool
   worker domains run unobserved — observability applies to the main
   domain's engines (sweep commands that need observed runs use
   --domains 1). *)
let with_obs t f =
  if t.trace_out = None && not t.metrics && t.metrics_out = None
     && not t.profile
  then f ()
  else begin
    let chrome =
      match t.trace_out with
      | Some path when Filename.check_suffix path ".json" ->
          Some (Vobs.Chrome_trace.create ())
      | _ -> None
    in
    let open_or_die path =
      try open_out path
      with Sys_error e ->
        Format.eprintf "vsim: cannot open trace file: %s@." e;
        exit 1
    in
    let oc = Option.map open_or_die t.trace_out in
    let registry = Vobs.Metrics.create () in
    let want_metrics = t.metrics || t.metrics_out <> None in
    (* One profile shared by every engine the command creates, so the GC
       baselines snapshot once and multi-engine commands report a single
       aggregate table. *)
    let prof =
      if t.profile then begin
        Vsim.Profile.set_clock Unix.gettimeofday;
        Some (Vsim.Profile.create ())
      end
      else None
    in
    let run_ix = ref 0 in
    Vsim.Engine.set_create_hook
      (Some
         (fun eng ->
           let run = !run_ix in
           incr run_ix;
           let (_ : Vobs.Spans.t) = Vobs.Spans.attach eng in
           (match (chrome, oc) with
           | Some c, _ -> Vobs.Chrome_trace.attach ~topics:t.topics ~run c eng
           | None, Some oc ->
               Vobs.Jsonl.attach ~topics:t.topics ~run eng (output_string oc)
           | None, None -> ());
           if want_metrics then Vobs.Metrics.attach registry eng;
           match prof with
           | Some p -> ignore (Vsim.Engine.enable_profiling ~profile:p eng)
           | None -> ()));
    Fun.protect
      ~finally:(fun () ->
        Vsim.Engine.set_create_hook None;
        (match (chrome, oc) with
        | Some c, Some oc -> output_string oc (Vobs.Chrome_trace.to_string c)
        | _ -> ());
        (match oc with Some oc -> close_out oc | None -> ());
        if t.metrics then Format.printf "%a@." Vobs.Metrics.pp registry;
        (match t.metrics_out with
        | Some path ->
            let moc = open_or_die path in
            output_string moc
              (Vobs.Json.to_string (Vobs.Metrics.to_json registry));
            output_string moc "\n";
            close_out moc
        | None -> ());
        match prof with
        | Some p ->
            (* Deterministic table to stdout; wall-clock diagnostics to
               stderr so stdout stays byte-comparable across runs. *)
            Format.printf "%a@." Vsim.Profile.pp p;
            Format.eprintf "%a@." Vsim.Profile.pp_wall p
        | None -> ())
      f
  end
