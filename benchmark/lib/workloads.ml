(* The five benchmark workloads.

   Each workload builds its inputs (every client's op script) from the
   seed before the first rep, so the simulated system receives only
   generated ops; the engine gets the same seed for its own randomness
   (CSMA backoff, retransmission jitter).  A rep builds a fresh testbed,
   runs the scripts to quiescence in a closed loop, checks every result,
   and reads each layer's [stats] accessors.  Everything the simulation
   reports is an exact function of the seed; only the host timings vary
   between reps. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg
module TB = Vworkload.Testbed
module Topo = Vworkload.Topology
module Io = Vfs.Client.Io
module P = Probe

type size = Full | Tiny

type t = {
  name : string;
  why : string;
  prepare : size -> seed:int -> Optrace.t option -> P.sample;
      (** [prepare size ~seed] builds the op scripts and returns one rep;
          the rep records op spans when given a recorder. *)
}

(* Script streams are independent of the engine's own stream. *)
let script_rng seed stream =
  Vsim.Rng.create
    (Int64.add
       (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
       (Int64.of_int (stream + 1)))

let engine_seed seed = Int64.of_int seed

let pattern = lazy (Bytes.init 65536 TB.pattern_byte)

(* [data] equals [expected] from [pos] on. *)
let equal_at expected ~pos data =
  let n = Bytes.length data in
  pos + n <= Bytes.length expected
  &&
  let rec go i = i >= n || (Bytes.get expected (pos + i) = Bytes.get data i && go (i + 1)) in
  go 0

let is_pattern ~pos data = equal_at (Lazy.force pattern) ~pos data

let result_outcome = function Ok _ -> P.Done | Error _ -> P.Failed

let kernels hosts = Array.to_list (Array.map (fun h -> h.TB.kernel) hosts)
let cpus hosts = List.map (fun h -> h.TB.cpu) hosts

(* --- ipc_pingpong ------------------------------------------------------ *)

let ipc_pingpong =
  let prepare size ~seed =
    let n = match size with Full -> 200_000 | Tiny -> 2_000 in
    let rng = script_rng seed 0 in
    let words = Array.init n (fun _ -> Int64.to_int (Vsim.Rng.int64 rng)) in
    fun trace ->
      let t0 = P.now_s () in
      let tb = TB.create ~seed:(engine_seed seed) ~hosts:2 () in
      let client = TB.host tb 1 and server = TB.host tb 2 in
      let log = P.log ?trace () in
      let echo =
        K.spawn server.TB.kernel ~name:"echo" (fun _ ->
            let k = server.TB.kernel in
            let msg = Msg.create () in
            let rec loop () =
              let src = K.receive k msg in
              (match K.reply k msg src with
              | K.Ok -> ()
              | st -> P.problem log ("echo reply: " ^ K.status_to_string st));
              loop ()
            in
            loop ())
      in
      let (_ : Vkernel.Pid.t) =
        K.spawn client.TB.kernel ~name:"client" (fun self ->
            let k = client.TB.kernel and pid = Vkernel.Pid.to_int self in
            let msg = Msg.create () and sent = Msg.create () in
            Array.iteri
              (fun i w ->
                Msg.set_u32 msg 4 (w land 0xffff_ffff);
                Msg.set_u32 msg 8 ((w lsr 32) land 0x7fff_ffff);
                Msg.set_u16 msg 12 (i land 0xffff);
                Msg.blit ~src:msg ~dst:sent;
                ignore
                  (P.op log ~name:"ipc.send" ~host:1 ~pid
                     (fun () -> K.send k msg echo)
                     (function
                       | K.Ok when Bytes.equal msg sent -> P.Done
                       | K.Ok -> P.Wrong "the reply differs from the message sent"
                       | _ -> P.Failed)))
              words)
      in
      let setup_s = P.now_s () -. t0 in
      let (), run_s, minor_words = P.op_phase (fun () -> TB.run tb) in
      let ops = log.P.attempted in
      let sim_ns = Vsim.Engine.now tb.TB.eng in
      P.sample log ~setup_s ~run_s ~minor_words
        ~sim:
          (P.latency_metrics log
          @ [
              ("sim_server_cpu_ms_per_op", P.cpu_ms_per_op ~ops [ server.TB.cpu ]);
              ("sim_client_cpu_ms_per_op", P.cpu_ms_per_op ~ops [ client.TB.cpu ]);
              ("sim_wire_bytes_per_op", P.per_op ops (P.wire_bytes [ tb.TB.medium ]));
            ])
        ~layer:
          (P.kernel_layer ~ops (kernels tb.TB.hosts)
          @ P.net_layer ~ops ~sim_ns [ tb.TB.medium ]
          @ [
              ("vhw.server_cpu_util", P.mean_util ~sim_ns [ server.TB.cpu ]);
              ("vhw.client_cpu_util", P.mean_util ~sim_ns [ client.TB.cpu ]);
            ])
        ~problems:(P.drain_problems (kernels tb.TB.hosts))
  in
  {
    name = "ipc_pingpong";
    why =
      "the smallest-message per-packet path (kernel, NIC copy, medium, Cpu \
       grants) with no file system, disk or cache: 200,000 remote 32-byte \
       Send-Receive-Reply exchanges";
    prepare;
  }

(* --- cluster_read_mostly ----------------------------------------------- *)

type cluster_op = Read of int | Load

let cluster_read_mostly =
  let prepare size ~seed =
    let clients, duration =
      match size with Full -> (12, Vsim.Time.sec 900) | Tiny -> (4, Vsim.Time.sec 20)
    in
    let think = Vworkload.Think.Exponential (Vsim.Time.ms 320) in
    (* Enough ops to outlast the run: each costs at least its think. *)
    let scripts =
      Array.init clients (fun c ->
          let rng = script_rng seed c in
          let rec gen acc total =
            if total >= duration then Array.of_list (List.rev acc)
            else
              let th = Vworkload.Think.sample think rng in
              let op = if Vsim.Rng.int rng 10 < 9 then Read (Vsim.Rng.int rng 64) else Load in
              gen ((th, op) :: acc) (total + th)
          in
          gen [] 0)
    in
    fun trace ->
      let t0 = P.now_s () in
      let tb = TB.create ~seed:(engine_seed seed) ~hosts:(clients + 1) () in
      let eng = tb.TB.eng in
      let fs =
        TB.make_test_fs tb ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 4))
          ~files:[ ("data", 64 * 512); ("prog", 65536) ]
          ()
      in
      let disk = Vfs.Fs.disk fs in
      let base = P.disk_io disk in
      let server = TB.host tb 1 in
      let srv =
        Vfs.Server.start server.TB.kernel fs
          ~config:
            {
              Vfs.Server.default_config with
              fs_process_ns = Vsim.Time.us 3500;
              transfer_unit = 16384;
              max_open = 2 * (clients + 2);
              workers = 4;
            }
          ()
      in
      let spid = Vfs.Server.pid srv in
      let log = P.log ~warmup:(Vsim.Time.ms 300) ?trace () in
      Array.iteri
        (fun c script ->
          let host = c + 2 in
          let k = (TB.host tb host).TB.kernel in
          ignore
            (K.spawn k ~name:"ws" (fun self ->
                 let pid = Vkernel.Pid.to_int self in
                 let op name f check = P.op log ~name ~host ~pid f check in
                 let mem = K.my_memory k in
                 let in_memory ~buf ~pos ~len =
                   is_pattern ~pos (Vkernel.Mem.read mem ~pos:buf ~len)
                 in
                 match Vfs.Client.connect_to k spid with
                 | Error _ -> P.note log P.Failed ~name:"vfs.connect" ~t0:0 ~t1:0
                 | Ok conn -> (
                     let opened name =
                       op "vfs.open_file" (fun () -> Vfs.Client.open_file conn name) result_outcome
                     in
                     let data = opened "data" in
                     let prog = opened "prog" in
                     match (data, prog) with
                     | Ok dh, Ok ph ->
                         let rec loop i =
                           if i < Array.length script && Vsim.Engine.now eng < duration then begin
                             let th, kind = script.(i) in
                             Vsim.Proc.sleep th;
                             (match kind with
                             | Read b ->
                                 ignore
                                   (op "vfs.read_page"
                                      (fun () -> Vfs.Client.read_page conn dh ~block:b ~buf:0 ())
                                      (function
                                        | Ok 512 when in_memory ~buf:0 ~pos:(b * 512) ~len:512 -> P.Done
                                        | Ok _ -> P.Wrong (Printf.sprintf "block %d differs" b)
                                        | Error _ -> P.Failed))
                             | Load ->
                                 ignore
                                   (op "vfs.load_program"
                                      (fun () ->
                                        Vfs.Client.load_program conn ph ~buf:4096 ~max:65536)
                                      (function
                                        | Ok 65536 when in_memory ~buf:4096 ~pos:0 ~len:65536 -> P.Done
                                        | Ok _ -> P.Wrong "program image differs"
                                        | Error _ -> P.Failed)));
                             loop (i + 1)
                           end
                         in
                         loop 0
                     | _ -> ()))))
        scripts;
      let setup_s = P.now_s () -. t0 in
      let (), run_s, minor_words = P.op_phase (fun () -> TB.run tb) in
      let ops = log.P.attempted in
      let sim_ns = Vsim.Engine.now eng in
      let hosts = Array.to_list tb.TB.hosts in
      let client_cpus = cpus (List.tl hosts) in
      P.sample log ~setup_s ~run_s ~minor_words
        ~sim:
          (P.latency_metrics ~limit_ns:(Vsim.Time.ms 100) log
          @ [
              ("sim_server_cpu_ms_per_op", P.cpu_ms_per_op ~ops [ server.TB.cpu ]);
              ("sim_client_cpu_ms_per_op", P.cpu_ms_per_op ~ops client_cpus);
              ("sim_wire_bytes_per_op", P.per_op ops (P.wire_bytes [ tb.TB.medium ]));
            ])
        ~layer:
          (P.kernel_layer ~ops (kernels tb.TB.hosts)
          @ P.net_layer ~ops ~sim_ns [ tb.TB.medium ]
          @ P.server_layer ~ops ~sim_ns ~base srv disk
          @ [
              ("vhw.server_cpu_util", P.mean_util ~sim_ns [ server.TB.cpu ]);
              ("vhw.client_cpu_util", P.mean_util ~sim_ns client_cpus);
              ("vfs.read_page_p50_ms", P.kind_p50_ms log "vfs.read_page");
              ("vfs.load_program_p50_ms", P.kind_p50_ms log "vfs.load_program");
            ])
        ~problems:(P.drain_problems (kernels tb.TB.hosts))
  in
  {
    name = "cluster_read_mostly";
    why =
      "the paper's Section 7 capacity knee: 12 workstations reading pages and \
       loading programs from one server, so server CPU, the shared medium and \
       retransmission do the work";
    prepare;
  }

(* --- session_write_back ------------------------------------------------- *)

type home_op = Home_read of int | Home_write of int * int  (* block, content tag *)

type session = { think : Vsim.Time.t; lib : int array; home : home_op array }

(* The content a write with [tag] puts in a block. *)
let block_of_tag tag =
  Bytes.init 512 (fun i -> Char.chr ((((tag * 0x9E3779B1) + (i * 0x85EBCA6B)) lsr 16) land 0xff))

let home_name i = Printf.sprintf "home%d" (i + 1)

let session_write_back =
  let prepare size ~seed =
    let ws, sessions = match size with Full -> (8, 500) | Tiny -> (2, 8) in
    let think = Vworkload.Think.Exponential (Vsim.Time.ms 50) in
    let scripts =
      Array.init ws (fun w ->
          let rng = script_rng seed w in
          Array.init sessions (fun _ ->
              let think = Vworkload.Think.sample think rng in
              let lib = Array.init 4 (fun _ -> Vsim.Rng.int rng 32) in
              let home =
                [|
                  Home_read (Vsim.Rng.int rng 16);
                  Home_read (Vsim.Rng.int rng 16);
                  Home_write (Vsim.Rng.int rng 16, Vsim.Rng.int rng 0x3fff_ffff);
                  Home_write (Vsim.Rng.int rng 16, Vsim.Rng.int rng 0x3fff_ffff);
                |]
              in
              for i = 3 downto 1 do
                let j = Vsim.Rng.int rng (i + 1) in
                let x = home.(i) in
                home.(i) <- home.(j);
                home.(j) <- x
              done;
              { think; lib; home }))
    in
    fun trace ->
      let t0 = P.now_s () in
      let tp =
        Topo.create ~seed:(engine_seed seed)
          ~segments:
            [
              { Topo.medium_config = Vnet.Medium.config_3mb; seg_hosts = ws };
              { Topo.medium_config = Vnet.Medium.config_10mb; seg_hosts = 1 };
            ]
          ()
      in
      let eng = tp.Topo.eng in
      let server_host = ws + 1 in
      let fs =
        Topo.make_fs tp ~host:server_host ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 4))
          ~journal_blocks:64
          ~files:(("lib", 32 * 512) :: List.init ws (fun i -> (home_name i, 16 * 512)))
          ()
      in
      let disk = Vfs.Fs.disk fs in
      let base = P.disk_io disk in
      let server = Topo.host tp server_host in
      let srv =
        Vfs.Server.start server.TB.kernel fs
          ~config:{ Vfs.Server.default_config with workers = 4; max_open = (4 * ws) + 8 }
          ()
      in
      let spid = Vfs.Server.pid srv in
      let log = P.log ?trace () in
      (* What each home block should hold: -1 the initial pattern, a tag
         the last acknowledged write, -2 unknown after a failed op. *)
      let shadows = Array.init ws (fun _ -> Array.make 16 (-1)) in
      let caches = ref [] in
      let expected shadow b =
        match shadow.(b) with
        | -1 -> Some (Bytes.sub (Lazy.force pattern) (b * 512) 512)
        | -2 -> None
        | tag -> Some (block_of_tag tag)
      in
      Array.iteri
        (fun w script ->
          let host = w + 1 in
          let k = (Topo.host tp host).TB.kernel in
          let shadow = shadows.(w) in
          ignore
            (K.spawn k ~name:"ws" (fun self ->
                 let pid = Vkernel.Pid.to_int self in
                 let op name f check = P.op log ~name ~host ~pid f check in
                 let cache =
                   Vfs.Cache.create eng ~host
                     { Vfs.Cache.capacity_blocks = 64; policy = Vfs.Cache.Write_back }
                 in
                 caches := cache :: !caches;
                 match Vfs.Client.connect_to k spid with
                 | Error _ -> P.note log P.Failed ~name:"vfs.connect" ~t0:0 ~t1:0
                 | Ok conn ->
                     let io = Io.make ~cache ~lease:true conn in
                     let with_file name body =
                       match op "vfs.io_open" (fun () -> Io.open_file io name) result_outcome with
                       | Error _ -> false
                       | Ok f ->
                           let ok = body f in
                           (match op "vfs.io_close" (fun () -> Io.close f) result_outcome with
                           | Ok () -> ok
                           | Error _ -> false)
                     in
                     let read f ~check b =
                       op "vfs.io_read"
                         (fun () -> Io.read f ~off:(b * 512) ~len:512)
                         (function
                           | Ok data when check data -> P.Done
                           | Ok _ -> P.Wrong (Printf.sprintf "block %d differs" b)
                           | Error _ -> P.Failed)
                     in
                     Array.iter
                       (fun s ->
                         Vsim.Proc.sleep s.think;
                         ignore
                           (with_file "lib" (fun f ->
                                Array.iter
                                  (fun b -> ignore (read f ~check:(is_pattern ~pos:(b * 512)) b))
                                  s.lib;
                                true));
                         let written = ref [] in
                         let ok =
                           with_file (home_name w) (fun f ->
                               Array.for_all
                                 (function
                                   | Home_read b ->
                                       let check data =
                                         match expected shadow b with
                                         | Some e -> Bytes.equal e data
                                         | None -> true
                                       in
                                       Result.is_ok (read f ~check b)
                                   | Home_write (b, tag) -> (
                                       written := b :: !written;
                                       match
                                         op "vfs.io_write"
                                           (fun () -> Io.write f ~off:(b * 512) (block_of_tag tag))
                                           (function Ok 512 -> P.Done | Ok _ | Error _ -> P.Failed)
                                       with
                                       | Ok 512 ->
                                           shadow.(b) <- tag;
                                           true
                                       | Ok _ | Error _ -> false))
                                 s.home)
                         in
                         (* A failed write or flush leaves the server's copy
                            unknown: stop checking those blocks. *)
                         if not ok then List.iter (fun b -> shadow.(b) <- -2) !written)
                       script)))
        scripts;
      let setup_s = P.now_s () -. t0 in
      let (), run_s, minor_words = P.op_phase (fun () -> Topo.run tp) in
      let ops = log.P.attempted in
      let sim_ns = Vsim.Engine.now eng in
      let hosts = Array.to_list tp.Topo.hosts in
      let client_cpus = cpus (List.filteri (fun i _ -> i < ws) hosts) in
      let media = Array.to_list tp.Topo.media in
      let cache_sum f =
        List.fold_left (fun a c -> a + f (Vfs.Cache.stats c)) 0 !caches
      in
      let hits = cache_sum (fun s -> s.Vfs.Cache.hits) in
      let misses = cache_sum (fun s -> s.Vfs.Cache.misses) in
      let disk_writes = snd (P.disk_io disk) - snd base in
      let sim =
        P.latency_metrics ~limit_ns:(Vsim.Time.ms 50) log
        @ [
            ("sim_server_cpu_ms_per_op", P.cpu_ms_per_op ~ops [ server.TB.cpu ]);
            ("sim_client_cpu_ms_per_op", P.cpu_ms_per_op ~ops client_cpus);
            ("sim_wire_bytes_per_op", P.per_op ops (P.wire_bytes media));
          ]
      in
      let layer =
        P.kernel_layer ~ops (kernels tp.Topo.hosts)
        @ P.net_layer ~ops ~sim_ns media
        @ P.gateway_layer ~ops (Vnet.Gateway.stats tp.Topo.gateway)
        @ P.server_layer ~ops ~sim_ns ~base srv disk
        @ [
            ("vhw.server_cpu_util", P.mean_util ~sim_ns [ server.TB.cpu ]);
            ("vhw.client_cpu_util", P.mean_util ~sim_ns client_cpus);
            ("vfs.cache_hit_ratio", P.ratio hits (hits + misses));
            ("vfs.cache_writebacks_per_op", P.per_op ops (cache_sum (fun s -> s.Vfs.Cache.writebacks)));
            ( "vfs.cache_invalidations_per_op",
              P.per_op ops (cache_sum (fun s -> s.Vfs.Cache.invalidations)) );
            ("vfs.leases_granted_per_op", P.per_op ops (Vfs.Server.leases_granted srv));
            ("vfs.leases_broken", float_of_int (Vfs.Server.leases_broken srv));
            ("vfs.leases_expired_per_op", P.per_op ops (Vfs.Server.leases_expired srv));
            ( "vfs.journal_write_amplification",
              P.ratio disk_writes (Vfs.Server.pages_written srv) );
          ]
        @ List.map
            (fun k -> ("vfs.io_" ^ k ^ "_p50_ms", P.kind_p50_ms log ("vfs.io_" ^ k)))
            [ "open"; "read"; "write"; "close" ]
      in
      let problems = P.drain_problems (kernels tp.Topo.hosts) in
      (* Read every home file back from the server through a fresh,
         uncached session and check it against the last bytes written;
         then fsck the journaled file system. *)
      let verify = ref [] in
      Array.iteri
        (fun w shadow ->
          let k = (Topo.host tp (w + 1)).TB.kernel in
          ignore
            (K.spawn k ~name:"verify" (fun _ ->
                 let fail msg = verify := (home_name w ^ ": " ^ msg) :: !verify in
                 match Vfs.Client.connect_to k spid with
                 | Error e -> fail (Vfs.Client.error_to_string e)
                 | Ok conn -> (
                     let io = Io.make conn in
                     match Io.open_file io (home_name w) with
                     | Error e -> fail (Vfs.Client.error_to_string e)
                     | Ok f ->
                         for b = 0 to 15 do
                           match (Io.read f ~off:(b * 512) ~len:512, expected shadow b) with
                           | Ok data, Some e when not (Bytes.equal data e) ->
                               fail (Printf.sprintf "block %d differs from the last write" b)
                           | Ok _, _ -> ()
                           | Error e, _ -> fail (Vfs.Client.error_to_string e)
                         done;
                         ignore (Io.close f)))))
        shadows;
      Topo.run tp;
      Topo.run_proc tp (fun () ->
          List.iter (fun m -> verify := ("fsck: " ^ m) :: !verify) (Vfs.Fs.check fs));
      P.sample log ~setup_s ~run_s ~minor_words ~sim ~layer
        ~problems:(problems @ List.rev !verify)
  in
  {
    name = "session_write_back";
    why =
      "writes beside reads across a gateway: the client write-back cache, \
       leases, the journal and the gateway hop do the work the other workloads \
       bypass";
    prepare;
  }

(* --- fault_sweep -------------------------------------------------------- *)

let fault_sweep =
  let prepare size ~seed =
    let (net_depth, net_limit), (crash_depth, crash_limit) =
      match size with Full -> ((2, 2000), (2, max_int)) | Tiny -> ((1, 40), (1, 10))
    in
    fun trace ->
      (* The sweeps build their testbeds internally: the create hook is
         the only way in.  Each sweep's first engine runs the unfaulted
         baseline (its set-up); every later engine is one schedule, whose
         simulated duration is its engine's clock when the next engine
         appears or the sweep returns. *)
      let log = P.log ?trace () in
      let current = ref None in
      let engines = ref 0 in
      let first_schedule_at = ref nan in
      let close_current () =
        match !current with
        | None -> ()
        | Some (eng, span, baseline) ->
            let t1 = Vsim.Engine.now eng in
            Option.iter (fun (tr, s) -> Optrace.finish tr s ~now:t1) span;
            if not baseline then P.record log ~name:"vcheck.schedule" ~t0:0 ~t1;
            current := None
      in
      let prev = Vsim.Engine.get_create_hook () in
      let hook eng =
        Option.iter (fun h -> h eng) prev;
        close_current ();
        incr engines;
        if !engines = 2 then first_schedule_at := P.now_s ();
        let baseline = !engines = 1 in
        let name = if baseline then "vcheck.baseline" else "vcheck.schedule" in
        let span =
          Option.map (fun tr -> (tr, Optrace.start tr ~name ~host:0 ~pid:0 ~now:0)) trace
        in
        current := Some (eng, span, baseline)
      in
      let attempted = ref 0 and failed = ref 0 and setup_s = ref 0.0 in
      let judge what = function
        | Error vs ->
            incr failed;
            P.problem log
              (Format.asprintf "%s baseline violates: %a" what
                 (Format.pp_print_list Vcheck.Checker.pp_violation)
                 vs)
        | Ok (r : Vcheck.Checker.sweep_report) -> (
            attempted := !attempted + r.schedules_run;
            match r.failure with
            | None -> ()
            | Some f ->
                incr failed;
                P.problem log
                  (Format.asprintf "%s schedule %s violates: %a" what
                     (Vcheck.Schedule.to_string f.minimal)
                     (Format.pp_print_list Vcheck.Checker.pp_violation)
                     f.violations))
      in
      let sweep what run =
        engines := 0;
        first_schedule_at := nan;
        let t0 = P.now_s () in
        let r = run () in
        close_current ();
        let t1 = P.now_s () in
        setup_s :=
          !setup_s +. (if Float.is_nan !first_schedule_at then t1 else !first_schedule_at) -. t0;
        judge what r
      in
      let eseed = engine_seed seed in
      let (), total_s, minor_words =
        Vsim.Engine.set_create_hook (Some hook);
        Fun.protect
          ~finally:(fun () -> Vsim.Engine.set_create_hook prev)
          (fun () ->
            P.op_phase (fun () ->
                sweep "net" (fun () ->
                    Vcheck.Checker.sweep ~depth:net_depth ~limit:net_limit ~seed:eseed
                      ~domains:1 ());
                sweep "crash" (fun () ->
                    Vcheck.Checker.sweep_crash ~depth:crash_depth ~limit:crash_limit
                      ~seed:eseed ~domains:1 ())))
      in
      let run_s = total_s -. !setup_s in
      let span_ns = int_of_float (Array.fold_left ( +. ) 0.0 (P.Lat.sorted log.P.all)) in
      let s =
        P.sample log ~setup_s:!setup_s ~run_s ~minor_words
          ~sim:(P.latency_metrics ~span_ns log)
          ~layer:
            [
              ("vcheck.schedules", float_of_int !attempted);
              ("vcheck.violations", float_of_int !failed);
            ]
          ~problems:[]
      in
      { s with attempted = !attempted; failed = !failed }
  in
  {
    name = "fault_sweep";
    why =
      "the host time CI waits on: 2,742 depth-2 network and crash fault \
       schedules, dominated by per-schedule testbed set-up and judging, on the \
       fault paths";
    prepare;
  }

(* --- boot_storm --------------------------------------------------------- *)

let boot_storm =
  let prepare size ~seed =
    let clients, pages, storms =
      match size with Full -> (128, 256, 24) | Tiny -> (16, 32, 2)
    in
    let config = { Vworkload.Boot.default_config with pages } in
    let segments = Vworkload.Boot.default_segments ~clients in
    fun trace ->
      let module B = Vworkload.Boot in
      (* Boot.run builds and runs its own engine; a zero-delay event
         scheduled from the create hook marks the end of its set-up. *)
      let first_event_at = ref 0.0 in
      let current = ref None in
      let prev = Vsim.Engine.get_create_hook () in
      let hook eng =
        Option.iter (fun h -> h eng) prev;
        ignore (Vsim.Engine.at eng 0 (fun () -> first_event_at := P.now_s ()));
        let span =
          Option.map
            (fun tr -> (tr, Optrace.start tr ~name:"boot.storm" ~host:0 ~pid:0 ~now:0))
            trace
        in
        current := Some (eng, span)
      in
      let log = P.log ?trace () in
      let setup_s = ref 0.0 and run_s = ref 0.0 and minor_words = ref 0.0 in
      let reports =
        Vsim.Engine.set_create_hook (Some hook);
        Fun.protect
          ~finally:(fun () -> Vsim.Engine.set_create_hook prev)
          (fun () ->
            List.init storms (fun i ->
                let t0 = P.now_s () in
                let w0 = Gc.minor_words () in
                let r = B.run ~seed:(engine_seed (seed + i)) ~config ~segments () in
                let t1 = P.now_s () in
                minor_words := !minor_words +. Gc.minor_words () -. w0;
                setup_s := !setup_s +. !first_event_at -. t0;
                run_s := !run_s +. t1 -. !first_event_at;
                (match !current with
                | Some (eng, Some (tr, s)) -> Optrace.finish tr s ~now:(Vsim.Engine.now eng)
                | Some (_, None) | None -> ());
                r))
      in
      let sum f = List.fold_left (fun a r -> a + f r) 0 reports in
      let booted r = Array.fold_left (fun a p -> if p = pages then a + 1 else a) 0 r.B.per_client_pages in
      List.iter
        (fun r ->
          let ok = booted r in
          log.P.attempted <- log.P.attempted + r.B.clients;
          log.P.failed <- log.P.failed + (r.B.clients - ok);
          if r.B.clients <> clients then P.problem log "wrong client count";
          if ok = r.B.clients then P.record log ~name:"boot.storm" ~t0:0 ~t1:r.B.elapsed_ns)
        reports;
      let ops = log.P.attempted in
      let elapsed = sum (fun r -> r.B.elapsed_ns) in
      let seg_busy i = sum (fun r -> (List.nth r.B.media i).Vnet.Medium.tx_busy_ns) in
      let gw f = sum (fun r -> f r.B.gateway) in
      let media_sum f = sum (fun r -> List.fold_left (fun a m -> a + f m) 0 r.B.media) in
      let booted_total = sum booted in
      P.sample log ~setup_s:!setup_s ~run_s:!run_s ~minor_words:!minor_words
        ~sim:
          (List.filter
             (fun (k, _) -> k = "sim_op_p50_ms" || k = "sim_op_samples")
             (P.latency_metrics log)
          @ [
              ("sim_ops_per_s", float_of_int booted_total /. (float_of_int elapsed /. 1e9));
              ("sim_server_cpu_ms_per_op", P.per_op ops (sum (fun r -> r.B.server_cpu_ns)) /. 1e6);
              ("sim_wire_bytes_per_op", P.per_op ops (sum (fun r -> r.B.wire_bytes)));
            ])
        ~layer:
          ([
             ("vnet.frames_per_op", P.per_op ops (media_sum (fun m -> m.Vnet.Medium.attempted)));
             ("vnet.collisions_per_op", P.per_op ops (media_sum (fun m -> m.Vnet.Medium.collisions)));
             ( "vnet.medium_util",
               Float.max (P.ratio (seg_busy 0) elapsed) (P.ratio (seg_busy 1) elapsed) );
             ("vhw.server_cpu_util", P.ratio (sum (fun r -> r.B.server_cpu_ns)) elapsed);
             ("boot.rounds_mean", P.ratio (sum (fun r -> r.B.rounds)) storms);
             ("boot.resent_pages_per_boot", P.ratio (sum (fun r -> r.B.resent_pages)) storms);
             ( "boot.unacked_done",
               float_of_int
                 (List.length
                    (List.filter (fun r -> (not r.B.completed) && booted r = r.B.clients) reports)) );
           ]
          @ P.gateway_layer ~ops
              {
                Vnet.Gateway.received = gw (fun g -> g.received);
                forwarded = gw (fun g -> g.forwarded);
                rebroadcast = gw (fun g -> g.rebroadcast);
                queue_drops = gw (fun g -> g.queue_drops);
                unrouted = gw (fun g -> g.unrouted);
                suppressed = gw (fun g -> g.suppressed);
                crc_drops = gw (fun g -> g.crc_drops);
                down_drops = gw (fun g -> g.down_drops);
              })
        ~problems:[]
  in
  {
    name = "boot_storm";
    why =
      "the only multicast fan-out path: 128 diskless clients load a 256-page \
       image across the gateway, 24 storms per rep, so rebroadcast and queue \
       overflow show";
    prepare;
  }

let all = [ ipc_pingpong; cluster_read_mostly; session_write_back; fault_sweep; boot_storm ]
let find name = List.find_opt (fun w -> w.name = name) all
