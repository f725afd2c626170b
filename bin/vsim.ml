(* vsim: run individual V kernel experiments with custom parameters.

   Examples:
     vsim ipc --mhz 8                    # remote Send-Receive-Reply
     vsim ipc --local --mhz 10           # same workstation: one CPU column
     vsim penalty --bytes 512 --net 10
     vsim move --bytes 4096 --from       # also --local
     vsim page --write --basic           # also --local
     vsim load --unit 16384 --net 10     # also --local
     vsim seq --latency 15
     vsim capacity --clients 5,10,20 --domains 4
     vsim fault --drop 0.1 --timeout 20
     vsim check --domains 4 --json

   ipc, move, page and load print per-operation elapsed time plus client
   and server CPU, measured by Vworkload.Rigs.srr, move, page_op and
   program_load; with --local client and server share host 1, so the two
   CPU lines agree.  A value out of a flag's range (--trials 0, --net 5,
   --unit 0, --bytes=-5, an unknown --cache-policy...) is a usage error,
   exit 124.

   Every subcommand shares the Spec flags: --seed, --domains, and the
   observability set (--trace-out/--trace-topics/--metrics/--metrics-out/
   --profile). *)

open Cmdliner
module Spec = Vsim_cli.Spec

let model_of_mhz = function
  | 8 -> Vhw.Cost_model.sun_8mhz
  | 10 -> Vhw.Cost_model.sun_10mhz
  | mhz -> Vhw.Cost_model.scale Vhw.Cost_model.sun_10mhz ~mhz

(* An int flag that must be at least [lo]: anything else is a usage
   error. *)
let at_least lo =
  Arg.conv'
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo -> Ok n
        | _ ->
            Error
              (Printf.sprintf "invalid value '%s', expected an integer >= %d"
                 s lo)),
      Format.pp_print_int )

let positive = at_least 1

let mhz_arg =
  Arg.(value & opt positive 10 & info [ "mhz" ] ~docv:"MHZ"
         ~doc:"Processor speed: 8 and 10 are the paper's calibrated SUNs; \
               other values cycle-scale the 10 MHz model.")

let net_arg =
  Arg.(value
       & opt
           (enum [ ("3", Vnet.Medium.config_3mb);
                   ("10", Vnet.Medium.config_10mb) ])
           Vnet.Medium.config_3mb
       & info [ "net" ] ~docv:"MBITS"
           ~doc:"Ethernet: 3 (experimental 2.94 Mb/s) or 10.")

let local_arg =
  Arg.(value & flag & info [ "local" ] ~doc:"Same-workstation operation.")

let trials_arg =
  Arg.(value & opt positive 100
       & info [ "trials" ] ~doc:"Measurement trials, at least 1.")

let workers_arg =
  Arg.(value & opt positive 1
       & info [ "workers" ]
           ~doc:"File-server worker processes, at least 1 (1 = the classic \
                 single Receive loop).")

let pp_cpu (c : Vworkload.Rigs.cols) =
  Format.printf "client cpu   %a ms@." Vsim.Time.pp_ms c.Vworkload.Rigs.client_cpu;
  Format.printf "server cpu   %a ms@." Vsim.Time.pp_ms c.Vworkload.Rigs.server_cpu

let pp_cols (c : Vworkload.Rigs.cols) =
  Format.printf "elapsed      %a ms@." Vsim.Time.pp_ms c.Vworkload.Rigs.elapsed;
  pp_cpu c

(* A --local ipc or move names its operation on the elapsed line. *)
let pp_local name (c : Vworkload.Rigs.cols) =
  Format.printf "local %s: %a ms@." name Vsim.Time.pp_ms c.Vworkload.Rigs.elapsed;
  pp_cpu c

(* --- ipc ------------------------------------------------------------ *)

let ipc_cmd =
  let run spec mhz medium_config local trials =
    Spec.with_obs spec @@ fun () ->
    let c =
      Vworkload.Rigs.srr ~trials ~cpu_model:(model_of_mhz mhz) ~medium_config
        ?seed:spec.Spec.seed ~server_host:(if local then 1 else 2) ()
    in
    if local then pp_local "Send-Receive-Reply" c else pp_cols c
  in
  Cmd.v (Cmd.info "ipc" ~doc:"Send-Receive-Reply message exchange")
    Term.(const run $ Spec.term $ mhz_arg $ net_arg $ local_arg $ trials_arg)

(* --- penalty --------------------------------------------------------- *)

let penalty_cmd =
  let bytes =
    Arg.(value & opt (at_least 0) 1024
         & info [ "bytes" ] ~doc:"Datagram size.")
  in
  let run spec mhz medium_config n trials =
    Spec.with_obs spec @@ fun () ->
    let cpu_model = model_of_mhz mhz in
    let measured =
      Vworkload.Rigs.measure_penalty ~trials ?seed:spec.Spec.seed ~cpu_model
        ~medium_config n
    in
    let analytic = Vworkload.Rigs.penalty_ns ~cpu_model ~medium_config n in
    Format.printf "network penalty P(%d): measured %a ms, analytic %a ms@." n
      Vsim.Time.pp_ms measured Vsim.Time.pp_ms analytic
  in
  Cmd.v
    (Cmd.info "penalty"
       ~doc:"Network penalty: one-way memory-to-memory datagram time")
    Term.(const run $ Spec.term $ mhz_arg $ net_arg $ bytes $ trials_arg)

(* --- move ------------------------------------------------------------ *)

let move_cmd =
  let bytes =
    Arg.(value & opt (at_least 0) 1024
         & info [ "bytes" ] ~doc:"Transfer size, at least 0.")
  in
  let from_flag =
    Arg.(value & flag & info [ "from" ] ~doc:"MoveFrom instead of MoveTo.")
  in
  let run spec mhz medium_config local count from_ =
    Spec.with_obs spec @@ fun () ->
    let to_remote = not from_ in
    let c =
      Vworkload.Rigs.move ~cpu_model:(model_of_mhz mhz) ~medium_config ~count
        ~to_remote ?seed:spec.Spec.seed ~sender_host:(if local then 1 else 2)
        ()
    in
    if local then
      pp_local
        (Printf.sprintf "Move%s %d bytes"
           (if to_remote then "To" else "From")
           count)
        c
    else pp_cols c
  in
  Cmd.v (Cmd.info "move" ~doc:"MoveTo/MoveFrom bulk data transfer")
    Term.(const run $ Spec.term $ mhz_arg $ net_arg $ local_arg $ bytes
          $ from_flag)

(* --- page ------------------------------------------------------------ *)

let page_cmd =
  let write_flag =
    Arg.(value & flag & info [ "write" ] ~doc:"Page write instead of read.")
  in
  let basic_flag =
    Arg.(value & flag
         & info [ "basic" ]
             ~doc:"Thoth-style MoveTo/MoveFrom path (4 packets) instead of \
                   the segment path (2 packets).")
  in
  let cache_blocks_arg =
    Arg.(value & opt (at_least 0) 0
         & info [ "cache-blocks" ]
             ~doc:"Client block-cache capacity in blocks; 0 disables the \
                   cache and uses the plain per-protocol stubs.")
  in
  let cache_policy_arg =
    let policies =
      Vfs.Cache.
        [ ("wt", Write_through); ("write-through", Write_through);
          ("wb", Write_back); ("write-back", Write_back) ]
    in
    Arg.(value & opt (enum policies) Vfs.Cache.Write_through
         & info [ "cache-policy" ]
             ~doc:"Cache write policy: wt (write-through) or wb \
                   (write-back).")
  in
  let pp_cache_stats = function
    | Some s ->
        Format.printf
          "cache        %d hits, %d misses, %d evictions, %d write-backs, \
           %d invalidations@."
          s.Vfs.Cache.hits s.Vfs.Cache.misses s.Vfs.Cache.evictions
          s.Vfs.Cache.writebacks s.Vfs.Cache.invalidations
    | None -> ()
  in
  let run spec mhz medium_config local write basic cache_blocks policy workers
      =
    Spec.with_obs spec @@ fun () ->
    let seed = spec.Spec.seed in
    let cpu_model = model_of_mhz mhz in
    if cache_blocks = 0 then
      pp_cols
        (Vworkload.Rigs.page_op ~cpu_model ~medium_config ~workers ?seed
           ~client_host:(if local then 1 else 2)
           ~write ~basic ())
    else if write then begin
      let per_write, flush_ns, stats =
        Vworkload.Rigs.cached_write ~cpu_model ~medium_config ?seed
          ~cache_blocks ~policy ()
      in
      Format.printf "per write    %a ms (%s)@." Vsim.Time.pp_ms per_write
        (Vfs.Cache.policy_to_string policy);
      Format.printf "flush total  %a ms@." Vsim.Time.pp_ms flush_ns;
      pp_cache_stats stats
    end
    else begin
      let r =
        Vworkload.Rigs.cached_read ~cpu_model ~medium_config ?seed
          ~cache_blocks ~policy ()
      in
      Format.printf "cold read    %a ms@." Vsim.Time.pp_ms
        r.Vworkload.Rigs.cold_ns;
      Format.printf "warm read    %a ms@." Vsim.Time.pp_ms
        r.Vworkload.Rigs.warm_ns;
      pp_cache_stats r.Vworkload.Rigs.cache_stats
    end
  in
  Cmd.v
    (Cmd.info "page"
       ~doc:"512-byte page access against a file server, optionally \
             through a client block cache")
    Term.(const run $ Spec.term $ mhz_arg $ net_arg $ local_arg $ write_flag
          $ basic_flag $ cache_blocks_arg $ cache_policy_arg $ workers_arg)

(* --- load ------------------------------------------------------------ *)

let load_cmd =
  let unit_arg =
    Arg.(value & opt positive 4096
         & info [ "unit" ] ~doc:"MoveTo transfer unit in bytes, at least 1.")
  in
  let run spec mhz medium_config local transfer_unit =
    Spec.with_obs spec @@ fun () ->
    let c =
      Vworkload.Rigs.program_load ~cpu_model:(model_of_mhz mhz)
        ~medium_config ?seed:spec.Spec.seed ~transfer_unit
        ~client_host:(if local then 1 else 2)
        ()
    in
    pp_cols c;
    Format.printf "data rate    %.0f KB/s@."
      (65536.0 /. 1024.0 /. Vsim.Time.to_float_s c.Vworkload.Rigs.elapsed)
  in
  Cmd.v (Cmd.info "load" ~doc:"64-kilobyte program load")
    Term.(const run $ Spec.term $ mhz_arg $ net_arg $ local_arg $ unit_arg)

(* --- seq ------------------------------------------------------------- *)

let seq_cmd =
  let latency =
    Arg.(value & opt int 15
         & info [ "latency" ] ~doc:"Server disk latency in ms.")
  in
  let pages =
    Arg.(value & opt positive 30
         & info [ "pages" ] ~doc:"File length in pages, at least 1.")
  in
  let run spec mhz latency npages =
    Spec.with_obs spec @@ fun () ->
    Format.printf "sequential read, %d ms disk: %a ms/page@." latency
      Vsim.Time.pp_ms
      (Vworkload.Rigs.sequential_read ~cpu_model:(model_of_mhz mhz) ~npages
         ?seed:spec.Spec.seed
         ~disk_latency_ns:(Vsim.Time.ms latency) ())
  in
  Cmd.v
    (Cmd.info "seq"
       ~doc:"Sequential file read against a read-ahead file server")
    Term.(const run $ Spec.term $ mhz_arg $ latency $ pages)

(* --- capacity --------------------------------------------------------- *)

let capacity_cmd =
  let clients =
    Arg.(value & opt (list positive) [ 10 ]
         & info [ "clients" ] ~docv:"LIST"
             ~doc:"Diskless workstation counts: a single value or a \
                   comma-separated sweep (e.g. 5,10,20), one closed-loop \
                   run per value, fanned out over --domains.")
  in
  let think =
    Arg.(value & opt int 320
         & info [ "think" ] ~doc:"Mean think time between requests, ms.")
  in
  let duration =
    Arg.(value & opt int 4 & info [ "duration" ] ~doc:"Simulated seconds.")
  in
  let run spec mhz clients think duration workers =
    Spec.with_obs spec @@ fun () ->
    let rows =
      Vworkload.Rigs.capacity_sweep ~cpu_model:(model_of_mhz mhz)
        ~duration:(Vsim.Time.sec duration)
        ~think_mean:(Vsim.Time.ms think) ~workers ?seed:spec.Spec.seed
        ~domains:spec.Spec.domains ~clients ()
    in
    List.iter
      (fun (clients, (thr, mean, cpu, net)) ->
        Format.printf
          "%d workstations: %.1f req/s, mean %.2f ms, server cpu %.0f%%, \
           network %.1f%%@."
          clients thr mean (100.0 *. cpu) (100.0 *. net))
      rows
  in
  Cmd.v
    (Cmd.info "capacity" ~doc:"File-server capacity under multi-client load")
    Term.(const run $ Spec.term $ mhz_arg $ clients $ think $ duration
          $ workers_arg)

(* --- fault ------------------------------------------------------------ *)

let fault_cmd =
  let drop =
    Arg.(value & opt float 0.0 & info [ "drop" ] ~doc:"Frame drop probability.")
  in
  let corrupt =
    Arg.(value & opt float 0.0
         & info [ "corrupt" ] ~doc:"Frame corruption probability.")
  in
  let bug =
    Arg.(value & flag
         & info [ "bug" ] ~doc:"The 3 Mb interface hardware bug (1/2000).")
  in
  let timeout =
    Arg.(value & opt int 200
         & info [ "timeout" ] ~doc:"Retransmission timeout T in ms.")
  in
  let rto_mode =
    let modes =
      [ ("fixed", Vkernel.Kernel.Fixed); ("adaptive", Vkernel.Kernel.Adaptive) ]
    in
    Arg.(value & opt (enum modes) Vkernel.Kernel.Fixed
         & info [ "rto-mode" ]
             ~doc:"Retransmission timer: $(b,fixed) uses T verbatim; \
                   $(b,adaptive) estimates per-destination RTT \
                   (Jacobson/Karn) with exponential backoff.")
  in
  let run spec mhz medium_config drop corrupt bug timeout rto_mode trials =
    Spec.with_obs spec @@ fun () ->
    let fault =
      if bug then Vnet.Fault.hardware_bug
      else
        { Vnet.Fault.none with Vnet.Fault.drop_prob = drop;
          corrupt_prob = corrupt }
    in
    let kernel_config =
      { Vkernel.Kernel.default_config with
        Vkernel.Kernel.retransmit_timeout_ns = Vsim.Time.ms timeout;
        rto_mode }
    in
    pp_cols
      (Vworkload.Rigs.srr ~trials ~cpu_model:(model_of_mhz mhz) ~medium_config
         ~fault ~kernel_config ?seed:spec.Spec.seed ~server_host:2 ())
  in
  Cmd.v
    (Cmd.info "fault" ~doc:"Message exchange under network faults")
    Term.(const run $ Spec.term $ mhz_arg $ net_arg $ drop $ corrupt $ bug
          $ timeout $ rto_mode $ trials_arg)

(* --- check: systematic fault-schedule exploration --------------------- *)

let check_cmd =
  let module Checker = Vcheck.Checker in
  let module Scenario = Checker.Scenario in
  let depth =
    Arg.(value & opt (enum [ ("1", 1); ("2", 2) ]) 2
         & info [ "depth" ] ~docv:"N"
             ~doc:"Maximum scheduled faults per run: 1 or 2.")
  in
  let limit =
    Arg.(value & opt positive 600
         & info [ "limit" ] ~docv:"N"
             ~doc:"Stop after exploring $(docv) schedules (at least 1).")
  in
  let repro =
    Arg.(value & opt (some file) None
         & info [ "repro" ] ~docv:"FILE"
             ~doc:"Replay the single schedule in $(docv) (as emitted on a \
                   violation) instead of sweeping, against the scenario \
                   its $(b,# scenario:) line names.")
  in
  let emit =
    Arg.(value & opt string "vcheck.repro"
         & info [ "emit-repro" ] ~docv:"FILE"
             ~doc:"Where to write the minimized reproducer on violation.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the sweep report as one line of JSON on stdout \
                   instead of the human-readable summary.  The JSON is \
                   deterministic and byte-identical for any --domains \
                   value.")
  in
  let scenario =
    let names =
      List.map (fun (sc : Scenario.t) -> (sc.name, sc.name)) Scenario.all
    in
    Arg.(value & opt (some (enum names)) None
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:(Printf.sprintf
                     "The workload and schedule space to sweep or replay \
                      (doc/CHECKING.md): %s.  Defaults to net; a --repro \
                      file's own scenario line must agree with it."
                     (Arg.doc_alts_enum names)))
  in
  let print_violations vs =
    List.iter
      (fun v -> Format.printf "  violation -- %a@." Checker.pp_violation v)
      vs
  in
  let run spec depth limit repro emit json scenario =
    Spec.with_obs spec @@ fun () ->
    let seed = spec.Spec.seed in
    let scenario = Option.bind scenario Scenario.find in
    match repro with
    | Some path -> (
        let text = In_channel.with_open_text path In_channel.input_all in
        match Checker.load_repro ?scenario text with
        | Error e ->
            Format.eprintf "vsim check: %s@." e;
            exit 2
        | Ok (sc, s) -> (
            Format.printf "replaying schedule: %a@." Vcheck.Schedule.pp s;
            let o = sc.run ?seed s in
            Format.printf "@[<v>%t@]@." o.pp_digest;
            match o.violations with
            | [] -> Format.printf "no invariant violations@."
            | vs ->
                print_violations vs;
                exit 1))
    | None -> (
        let sc = Option.value scenario ~default:Scenario.net in
        match
          Checker.explore sc ~depth ~limit ?seed ~domains:spec.Spec.domains ()
        with
        | Error vs ->
            Format.printf "the unfaulted baseline run violates invariants:@.";
            print_violations vs;
            exit 1
        | Ok r when json ->
            print_endline (Checker.report_to_json r);
            if r.failure <> None then exit 1
        | Ok r -> (
            Format.printf "baseline workload: %d frames, %d operations@."
              r.baseline_frames sc.op_count;
            match r.failure with
            | None ->
                Format.printf
                  "explored %d %s schedules (depth <= %d): no invariant \
                   violations@."
                  r.schedules_run sc.label depth
            | Some f ->
                Format.printf "violation at schedule %d of the sweep@."
                  r.schedules_run;
                Format.printf "  first failing: %a@." Vcheck.Schedule.pp
                  f.schedule;
                Format.printf "  minimized:     %a@." Vcheck.Schedule.pp
                  f.minimal;
                print_violations f.violations;
                Out_channel.with_open_text emit (fun oc ->
                    output_string oc
                      (Checker.repro_file_contents sc f.minimal f.violations));
                Format.printf "reproducer written to %s@." emit;
                exit 1))
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Systematically explore the fault schedules of one scenario \
             (drop / duplicate / delay / reorder per frame, host crash + \
             restart or crash-stop points) over a scripted workload, \
             checking the paper's invariants after every run; violations \
             are shrunk to a minimal replayable schedule")
    Term.(const run $ Spec.term $ depth $ limit $ repro $ emit $ json
          $ scenario)

(* --- boot: the multicast boot storm ---------------------------------- *)

let boot_cmd =
  let clients =
    Arg.(value & opt int 32
         & info [ "clients" ] ~docv:"N"
             ~doc:"Diskless clients booting simultaneously (1..200).")
  in
  let pages =
    Arg.(value & opt int 128
         & info [ "pages" ] ~docv:"N" ~doc:"Image size in pages.")
  in
  let page_bytes =
    Arg.(value & opt int 512
         & info [ "page-bytes" ] ~docv:"BYTES" ~doc:"Page payload size.")
  in
  let topology =
    Arg.(value & opt (some string) None
         & info [ "topology" ] ~docv:"SPEC"
             ~doc:"Segment spec NET:CLIENTS,... (NET is 3mb or 10mb), e.g. \
                   10mb:16,3mb:16; the boot server sits on the first \
                   segment.  Overrides --clients.  Default: --clients split \
                   over 10mb,3mb.")
  in
  let module Boot = Vworkload.Boot in
  let storm spec ~config ~segments =
    Spec.with_obs spec @@ fun () ->
    let r = Boot.run ?seed:spec.Spec.seed ~config ~segments () in
    let cpu_s_per_k, bytes_per_k = Boot.cost_per_1000_clients r in
    Format.printf "boot storm: %d clients, %d x %d-byte pages over %d segments@."
      r.Boot.clients r.Boot.pages r.Boot.page_bytes
      (List.length r.Boot.media);
    Format.printf "  completed        %b (%d/%d clients booted)@."
      r.Boot.completed
      (Array.fold_left
         (fun a p -> a + if p = r.Boot.pages then 1 else 0)
         0 r.Boot.per_client_pages)
      r.Boot.clients;
    Format.printf "  elapsed          %a ms@." Vsim.Time.pp_ms r.Boot.elapsed_ns;
    Format.printf "  rounds           %d (%d pages re-multicast)@."
      r.Boot.rounds r.Boot.resent_pages;
    Format.printf "  server cpu       %a ms@." Vsim.Time.pp_ms
      r.Boot.server_cpu_ns;
    Format.printf "  network          %d bytes on the wire@." r.Boot.wire_bytes;
    Format.printf "  gateway          %d forwarded, %d rebroadcast, %d \
                   suppressed, %d dropped@."
      r.Boot.gateway.Vnet.Gateway.forwarded
      r.Boot.gateway.Vnet.Gateway.rebroadcast
      r.Boot.gateway.Vnet.Gateway.suppressed
      (r.Boot.gateway.Vnet.Gateway.queue_drops
      + r.Boot.gateway.Vnet.Gateway.down_drops);
    Format.printf "  cost_per_1000_clients  %.3f server-cpu s, %.0f net bytes@."
      cpu_s_per_k bytes_per_k;
    if not r.Boot.completed then exit 1
  in
  let run spec clients pages page_bytes topology =
    let segments =
      match topology with
      | None -> Boot.default_segments ~clients
      | Some s -> (
          match Vworkload.Topology.spec_of_string s with
          | Ok segs -> segs
          | Error e ->
              Format.eprintf "--topology: %s@." e;
              exit 1)
    in
    let config = { Boot.default_config with pages; page_bytes } in
    match Boot.validate config ~segments with
    | Error e -> `Error (true, e)
    | Ok () -> `Ok (storm spec ~config ~segments)
  in
  Cmd.v
    (Cmd.info "boot"
       ~doc:"Boot storm: N diskless clients multicast-load one kernel image \
             from a single boot server across a gatewayed two-segment \
             internetwork, with NACK-driven re-multicast rounds")
    Term.(ret (const run $ Spec.term $ clients $ pages $ page_bytes $ topology))

(* --- run: assemble a program and execute it on a diskless ws --------- *)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.s" ~doc:"Assembly source for the workstation \
                                        interpreter (see lib/vexec/asm.mli).")
  in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print kernel/network trace.")
  in
  let run spec mhz medium_config source_path trace =
    Spec.with_obs spec @@ fun () ->
    let source = In_channel.with_open_text source_path In_channel.input_all in
    let img =
      match Vexec.Asm.assemble source with
      | Ok img -> img
      | Error e ->
          Format.eprintf "%s: %s@." source_path e;
          exit 1
    in
    let tb =
      Vworkload.Testbed.create ?seed:spec.Spec.seed
        ~cpu_model:(model_of_mhz mhz)
        ~medium_config ~hosts:2 ()
    in
    if trace then Vsim.Trace.to_stderr tb.Vworkload.Testbed.eng;
    let fs = Vworkload.Testbed.make_test_fs tb ~files:[] () in
    Vworkload.Testbed.run_proc tb ~name:"install" (fun () ->
        let inum = Result.get_ok (Vfs.Fs.create fs "prog") in
        match Vfs.Fs.write fs ~inum ~pos:0 (Vexec.Image.to_bytes img) with
        | Ok () -> ()
        | Error e -> Fmt.failwith "install: %a" Vfs.Fs.pp_error e);
    let k_fs = Vworkload.Testbed.kernel tb 1 in
    let k_ws = Vworkload.Testbed.kernel tb 2 in
    let (_ : Vfs.Server.t) = Vfs.Server.start k_fs fs () in
    let (_ : Vkernel.Pid.t) =
      Vkernel.Kernel.spawn k_ws ~name:"workstation" (fun _ ->
          let conn =
            match Vfs.Client.connect k_ws () with
            | Ok c -> c
            | Error e ->
                Fmt.failwith "connect: %s" (Vfs.Client.error_to_string e)
          in
          let eng = Vkernel.Kernel.engine k_ws in
          let t0 = Vsim.Engine.now eng in
          match
            Vexec.Loader.load_and_run k_ws ~conn ~name:"prog"
              ~console:print_char ()
          with
          | Ok outcome ->
              Format.printf "@.[%a; loaded and ran in %a of simulated time]@."
                Vexec.Vm.pp_outcome outcome Vsim.Time.pp
                (Vsim.Engine.now eng - t0)
          | Error e ->
              Format.eprintf "load: %s@." (Vexec.Loader.error_to_string e))
    in
    Vworkload.Testbed.run tb
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Assemble a program and run it on a simulated diskless \
             workstation (loaded from the file server, interpreted with V \
             syscalls)")
    Term.(const run $ Spec.term $ mhz_arg $ net_arg $ file $ trace)

let () =
  let info =
    Cmd.info "vsim" ~version:"1.0"
      ~doc:"Experiments on the simulated distributed V kernel"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ ipc_cmd; penalty_cmd; move_cmd; page_cmd; load_cmd; seq_cmd;
            capacity_cmd; fault_cmd; check_cmd; boot_cmd; run_cmd ]))
