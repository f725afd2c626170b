(* One experiment per table/figure of the paper.  Each function runs the
   paper's measurement procedure (via Vworkload.Rigs) and hands its rows
   to Report.table with columns that name each value's catalog metric
   and the paper's figures, which print as measured-vs-paper rows.  See
   EXPERIMENTS.md for the recorded comparison. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg
module TB = Vworkload.Testbed
module R = Vworkload.Rigs

let m8 = Vhw.Cost_model.sun_8mhz
let m10 = Vhw.Cost_model.sun_10mhz
let net3 = Vnet.Medium.config_3mb
let net10 = Vnet.Medium.config_10mb

module Cat = Vobs.Catalog

(* Grid fan-out: every sweep-shaped experiment turns its parameter grid
   into Vsim.Job values and runs them through Vsim.Pool, so
   `bench --domains N` spreads the simulation runs across N domains.
   Results come back in grid order, so tables and catalog cells are
   byte-identical for any domain count.  Recording stays on the main
   domain — jobs only compute.

   Metrics digests: the engine-create hook is domain-local, so a
   registry attached on the main domain would miss every engine a
   worker-domain job creates — and which jobs land where depends on
   scheduling.  Instead each job carries its own registry: the thunk
   installs it for the job's duration (replacing, not chaining, any
   main-domain hook, so the same engines are captured whichever domain
   the job runs on), and returns its digest alongside the result.  The
   digests come back in grid order, so the per-experiment digest the
   harness stamps — main-domain registry plus job digests, in order —
   is byte-identical for any --domains value. *)
let domains = ref Vsim.Pool.default_domains
let set_domains n = domains := n

(* Library-level sweeps (Rigs.capacity_sweep, Rigs.contention_sweep,
   Checker.sweep) fan out through their own Vsim.Pool: their engines run
   on arbitrary worker domains, where the domain-local create hook can't
   see them, so which engines a main-domain registry captures would
   depend on --domains.  Suspend the hook around such calls: they
   contribute nothing to the digest at any domain count, keeping it
   byte-identical. *)
let without_metrics_capture f = Vsim.Engine.with_create_hook None f

let grid ~label f xs =
  let results =
    Vsim.Pool.run_list ~domains:!domains
      (List.mapi
         (fun i x ->
           Vsim.Job.v ~label:(lazy (Printf.sprintf "%s:%d" label i)) (fun () ->
               let reg = Vobs.Metrics.create () in
               Vsim.Engine.with_create_hook
                 (Some (fun eng -> Vobs.Metrics.attach reg eng))
                 (fun () ->
                   let r = f x in
                   let digest =
                     Cat.digest_string
                       (Vobs.Json.to_string (Vobs.Metrics.to_json reg))
                   in
                   (r, digest))))
         xs)
  in
  Report.add_job_digests (List.map snd results);
  List.map fst results

(* Param and metric shorthands, and the column kinds that Report.ms and
   Report.count do not cover. *)
let pi k v = (k, Vobs.Json.Int v)
let ps k v = (k, Vobs.Json.Str v)
let m_ms = Report.ms.metric
let m_count = Report.count.metric
let m_msf v = Cat.metric ~units:"ms" v
let f1 = Printf.sprintf "%.1f"
let msf = Report.kind (Printf.sprintf "%.2f") m_msf
let per_s = Report.kind f1 (Cat.metric ~units:"per_s" ~better:Cat.Higher)

let pct fmt =
  Report.kind
    (fun v -> Printf.sprintf fmt (100.0 *. v))
    (Cat.metric ~units:"frac")

let ms_saved =
  Report.kind Report.ms.show (fun ns ->
      { (m_ms ns) with Cat.better = Cat.Higher })

(* ------------------------------------------------------------------ *)
(* Table 4-1: network penalty                                          *)

let table_4_1 () =
  Report.section
    "Table 4-1: 3 Mb Ethernet SUN network penalty (times in ms)";
  let wire n = float_of_int (n * Vnet.Medium.byte_time_ns net3) /. 1e6 in
  Report.table
    ~params:(fun (n, _, _) -> [ pi "bytes" n; pi "net" 3 ])
    [
      Report.text "bytes" (fun (n, _, _) -> string_of_int n);
      Report.text "net-time" (fun (n, _, _) -> Printf.sprintf "%.3f" (wire n));
      Report.col "8MHz sim (paper)" Report.ms ~metric:"penalty_8mhz_ms"
        ~paper:[ 0.80; 1.20; 2.00; 3.65; 6.95 ] (fun (_, got8, _) -> got8);
      Report.col "10MHz sim (paper)" Report.ms ~metric:"penalty_10mhz_ms"
        ~paper:[ 0.65; 0.96; 1.62; 3.00; 5.83 ] (fun (_, _, got10) -> got10);
    ]
    (grid ~label:"penalty"
       (fun n ->
         let got8 = R.measure_penalty ~cpu_model:m8 ~medium_config:net3 n in
         let got10 = R.measure_penalty ~cpu_model:m10 ~medium_config:net3 n in
         (n, got8, got10))
       [ 64; 128; 256; 512; 1024 ]);
  Report.note
    "Paper fit: P(n) = .0064n + .390 ms (8 MHz); .0054n + .251 ms (10 MHz)."

(* ------------------------------------------------------------------ *)
(* Tables 5-1 / 5-2 and 6-1: local and remote operation costs          *)

(* The paper's figures for one of its local/remote cost tables, a list
   per column, top to bottom.  Rows measured only locally come first;
   [local_only] holds their local figures, and every other list has one
   figure per row measured remotely. *)
type paper_costs = {
  local_only : float list;
  local : float list;
  remote : float list;
  penalty : float list;
  client_cpu : float list;
  server_cpu : float list;
}

(* A row of such a table: its name, its catalog [op], the local time,
   and the remote measurement with its network penalty (none for a
   row measured only locally). *)
type cost_row = {
  name : string;
  op : string;
  local_ns : int;
  remote_cols : (R.cols * int) option;
}

let cost_row name op local_ns remote penalty =
  { name; op; local_ns; remote_cols = Some (remote, penalty) }

let cost_table ~mhz (p : paper_costs) rows =
  let remote header ?metric paper f =
    Report.col_opt header Report.ms ?metric ~paper (fun r ->
        Option.map (fun (c, penalty) -> f r c penalty) r.remote_cols)
  in
  Report.table
    ~params:(fun r -> [ pi "mhz" mhz; pi "net" 3; ps "op" r.op ])
    [
      Report.text "operation" (fun r -> r.name);
      Report.col "local" Report.ms ~metric:"local_ms"
        ~paper:(p.local_only @ p.local) (fun r -> r.local_ns);
      remote "remote" ~metric:"remote_ms" p.remote (fun _ c _ -> c.R.elapsed);
      remote "diff" (List.map2 ( -. ) p.remote p.local) (fun r c _ ->
          c.R.elapsed - r.local_ns);
      remote "penalty" p.penalty (fun _ _ penalty -> penalty);
      remote "client-cpu" ~metric:"client_cpu_ms" p.client_cpu (fun _ c _ ->
          c.R.client_cpu);
      remote "server-cpu" ~metric:"server_cpu_ms" p.server_cpu (fun _ c _ ->
          c.R.server_cpu);
    ]
    rows

let kernel_table ~mhz ~cpu_model ~paper title =
  Report.section title;
  let gt = R.gettime ~cpu_model () in
  let srr host = R.srr ~cpu_model ~medium_config:net3 ~server_host:host () in
  let move host ~to_remote =
    R.move ~cpu_model ~medium_config:net3 ~count:1024 ~to_remote
      ~sender_host:host ()
  in
  let srr_l = (srr 1).R.elapsed in
  let srr_r = srr 2 in
  let mf_l = (move 1 ~to_remote:false).R.elapsed in
  let mf_r = move 2 ~to_remote:false in
  let mt_l = (move 1 ~to_remote:true).R.elapsed in
  let mt_r = move 2 ~to_remote:true in
  let p = R.penalty_ns ~cpu_model ~medium_config:net3 in
  let srr_penalty = 2 * p 64 in
  let move_penalty = p 64 + p 1088 in
  cost_table ~mhz paper
    [
      { name = "GetTime"; op = "gettime"; local_ns = gt; remote_cols = None };
      cost_row "Send-Receive-Reply" "srr" srr_l srr_r srr_penalty;
      cost_row "MoveFrom 1024B" "movefrom_1024" mf_l mf_r move_penalty;
      cost_row "MoveTo 1024B" "moveto_1024" mt_l mt_r move_penalty;
    ]

let table_5_1 () =
  kernel_table ~mhz:8 ~cpu_model:m8
    ~paper:
      {
        local_only = [ 0.07 ];
        local = [ 1.00; 1.26; 1.26 ];
        remote = [ 3.18; 9.03; 9.05 ];
        penalty = [ 1.60; 8.15; 8.15 ];
        client_cpu = [ 1.79; 3.76; 3.59 ];
        server_cpu = [ 2.30; 5.69; 5.87 ];
      }
    "Table 5-1: kernel performance, 3 Mb Ethernet, 8 MHz (ms, sim (paper))"

let table_5_2 () =
  kernel_table ~mhz:10 ~cpu_model:m10
    ~paper:
      {
        local_only = [ 0.06 ];
        local = [ 0.77; 0.95; 0.95 ];
        remote = [ 2.54; 8.00; 8.00 ];
        penalty = [ 1.30; 6.77; 6.77 ];
        client_cpu = [ 1.44; 3.32; 3.17 ];
        server_cpu = [ 1.79; 4.78; 4.95 ];
      }
    "Table 5-2: kernel performance, 3 Mb Ethernet, 10 MHz (ms, sim (paper))"

(* ------------------------------------------------------------------ *)
(* Section 5.4: multi-process traffic                                  *)

let section_5_4 () =
  Report.section "Section 5.4: multi-process traffic and the 3 Mb bug";
  let flood_load ~pairs =
    let tb = TB.create ~cpu_model:m8 ~hosts:(2 * pairs) () in
    let eng = tb.TB.eng in
    let recs = Array.init pairs (fun _ -> Vsim.Stat.Acc.create ()) in
    let mark = Vnet.Medium.mark tb.TB.medium in
    for p = 0 to pairs - 1 do
      let server = R.start_echo (TB.kernel tb ((2 * p) + 2)) in
      let k = TB.kernel tb ((2 * p) + 1) in
      ignore
        (K.spawn k ~name:"flood" (fun _ ->
             let msg = Msg.create () in
             let stop = Vsim.Time.ms 500 in
             let rec loop () =
               if Vsim.Engine.now eng < stop then begin
                 let t0 = Vsim.Engine.now eng in
                 ignore (K.send k msg server);
                 Vsim.Stat.Acc.add recs.(p)
                   (float_of_int (Vsim.Engine.now eng - t0));
                 loop ()
               end
             in
             loop ()))
    done;
    TB.run tb;
    let elapsed = Vsim.Engine.now eng in
    let bits_per_s =
      float_of_int (Vnet.Medium.bits_since tb.TB.medium mark)
      /. Vsim.Time.to_float_s elapsed
    in
    let mean_srr =
      Array.fold_left (fun acc r -> acc +. Vsim.Stat.Acc.mean r) 0.0 recs
      /. float_of_int pairs
    in
    (bits_per_s, mean_srr /. 1e6)
  in
  let load1, srr1 = flood_load ~pairs:1 in
  let load2, srr2 = flood_load ~pairs:2 in
  let share net (_, load, _) = Printf.sprintf "%.1f%%" (load /. net *. 100.0) in
  Report.table
    ~params:(fun (pairs, _, _) -> [ pi "pairs" pairs; pi "mhz" 8; pi "net" 3 ])
    [
      Report.text "pairs" (fun (pairs, _, _) -> string_of_int pairs);
      Report.col "offered load" ~metric:"offered_load_kbps"
        (Report.kind (Printf.sprintf "%.0f kb/s")
           (Cat.metric ~units:"kbps" ~better:Cat.Higher))
        (fun (_, load, _) -> load /. 1e3);
      Report.text "% of 3Mb" (share 2.94e6);
      Report.text "% of 10Mb" (share 1e7);
      Report.col "S-R-R ms" ~metric:"srr_ms" msf (fun (_, _, srr) -> srr);
    ]
    [ (1, load1, srr1); (2, load2, srr2) ];
  Report.note
    "Paper: one pair at maximum speed loads the net ~400 kb/s (~13%% of \
     3 Mb);";
  Report.note
    "two concurrent pairs see minimal degradation. Sim pair-1 vs pair-2 \
     S-R-R: %.2f vs %.2f ms." srr1 srr2;
  let bug =
    R.srr ~server_host:2 ~trials:3000 ~cpu_model:m8 ~medium_config:net3
      ~fault:Vnet.Fault.hardware_bug ()
  in
  Report.note
    "Hardware-bug mode (1/2000 packets corrupted): S-R-R %.2f ms (paper \
     3.4; clean 3.18)."
    (Vsim.Time.to_float_ms bug.R.elapsed);
  Report.record
    ~params:[ ps "mode" "hardware_bug"; pi "mhz" 8; pi "net" 3 ]
    [ ("srr_ms", m_ms bug.R.elapsed) ]

(* ------------------------------------------------------------------ *)
(* Table 6-1 and Section 6.1                                           *)

let table_6_1 () =
  Report.section
    "Table 6-1: page-level file access, 512-byte pages, 10 MHz (ms, sim \
     (paper))";
  let read_l = R.page_op ~client_host:1 ~write:false ~basic:false () in
  let read_r = R.page_op ~client_host:2 ~write:false ~basic:false () in
  let write_l = R.page_op ~client_host:1 ~write:true ~basic:false () in
  let write_r = R.page_op ~client_host:2 ~write:true ~basic:false () in
  let p = R.penalty_ns ~cpu_model:m10 ~medium_config:net3 in
  let page_penalty = p 64 + p 576 in
  cost_table ~mhz:10
    {
      local_only = [];
      local = [ 1.31; 1.31 ];
      remote = [ 5.56; 5.60 ];
      penalty = [ 3.89; 3.89 ];
      client_cpu = [ 2.50; 2.58 ];
      server_cpu = [ 3.28; 3.32 ];
    }
    [
      cost_row "page read" "page_read" read_l.R.elapsed read_r page_penalty;
      cost_row "page write" "page_write" write_l.R.elapsed write_r
        page_penalty;
    ]

let section_6_1_segments () =
  Report.section
    "Section 6.1: segment extension vs basic Thoth-style page access \
     (10 MHz, remote)";
  let seg_r = R.page_op ~client_host:2 ~write:false ~basic:false () in
  let seg_w = R.page_op ~client_host:2 ~write:true ~basic:false () in
  let bas_r = R.page_op ~client_host:2 ~write:false ~basic:true () in
  let bas_w = R.page_op ~client_host:2 ~write:true ~basic:true () in
  Report.table
    ~params:(fun (_, op, _, _) -> [ ps "op" op; pi "mhz" 10; pi "net" 3 ])
    [
      Report.text "operation" (fun (name, _, _, _) -> name);
      Report.col "segments ms" ~metric:"segments_ms" Report.ms
        (fun (_, _, seg, _) -> seg);
      Report.col "basic ms" ~metric:"basic_ms" Report.ms
        (fun (_, _, _, bas) -> bas);
      Report.col "saved ms" ~metric:"saved_ms" ms_saved
        (fun (_, _, seg, bas) -> bas - seg);
    ]
    [ ("page read", "page_read", seg_r.R.elapsed, bas_r.R.elapsed);
      ("page write", "page_write", seg_w.R.elapsed, bas_w.R.elapsed) ];
  Report.note
    "Paper: basic Send-Receive-MoveFrom-Reply write costs 8.1 ms vs 5.6, \
     'the segment mechanism saves 3.5 ms on every page read and write'.";
  Report.note
    "Packet counts: segments use 2 packets per page, the basic path 4 \
     (Section 3.4)."

(* ------------------------------------------------------------------ *)
(* Table 6-2: sequential access with disk latency                      *)

let table_6_2 () =
  Report.section
    "Table 6-2: sequential page reads vs disk latency, read-ahead server \
     (ms/page, sim (paper))";
  Report.table
    ~params:(fun (latency_ms, _) ->
      [ pi "disk_latency_ms" latency_ms; pi "mhz" 10; pi "net" 3 ])
    [
      Report.text "disk latency ms" (fun (latency_ms, _) ->
          string_of_int latency_ms);
      Report.col "elapsed/page (paper)" Report.ms ~metric:"per_page_ms"
        ~paper:[ 12.02; 17.13; 22.22 ] snd;
    ]
    (grid ~label:"seq_read"
       (fun latency_ms ->
         ( latency_ms,
           R.sequential_read ~disk_latency_ns:(Vsim.Time.ms latency_ms) () ))
       [ 10; 15; 20 ]);
  Report.note
    "Shape: elapsed/page = disk latency + ~constant, so a streaming \
     protocol could win at most 10-20%% (Section 6.2)."

(* ------------------------------------------------------------------ *)
(* Table 6-3: program loading                                          *)

let table_6_3 () =
  Report.section
    "Table 6-3: 64-kilobyte program load by transfer unit, 10 MHz (ms, sim \
     (paper))";
  Report.table
    ~params:(fun (unit_kb, _, _) ->
      [ pi "transfer_unit_kb" unit_kb; pi "mhz" 10; pi "net" 3 ])
    [
      Report.text "transfer unit" (fun (unit_kb, _, _) ->
          Printf.sprintf "%d Kb" unit_kb);
      Report.col "local" Report.ms ~metric:"local_ms"
        ~paper:[ 71.7; 62.5; 60.2; 59.7 ] (fun (_, l, _) ->
          l.R.elapsed);
      Report.col "remote" Report.ms ~metric:"remote_ms"
        ~paper:[ 518.3; 368.4; 344.6; 335.4 ] (fun (_, _, r) ->
          r.R.elapsed);
      Report.col "client-cpu" Report.ms ~metric:"client_cpu_ms"
        ~paper:[ 207.1; 176.1; 170.0; 168.1 ]
        (fun (_, _, r) -> r.R.client_cpu);
      Report.col "server-cpu" Report.ms ~metric:"server_cpu_ms"
        ~paper:[ 297.9; 225.2; 216.9; 212.7 ]
        (fun (_, _, r) -> r.R.server_cpu);
    ]
    (grid ~label:"load"
       (fun unit_kb ->
         let tu = unit_kb * 1024 in
         let local = R.program_load ~transfer_unit:tu ~client_host:1 () in
         let remote = R.program_load ~transfer_unit:tu ~client_host:2 () in
         (unit_kb, local, remote))
       [ 1; 4; 16; 64 ]);
  let remote64 = R.program_load ~transfer_unit:65536 ~client_host:2 () in
  let rate = 65536.0 /. 1024.0 /. Vsim.Time.to_float_s remote64.R.elapsed in
  Report.record
    ~params:[ ps "measure" "data_rate"; pi "mhz" 10; pi "net" 3 ]
    [ ("kb_per_s", Cat.metric ~units:"kb_per_s" ~better:Cat.Higher rate) ];
  Report.note "Large-unit data rate: %.0f KB/s (paper ~192 KB/s)." rate

(* ------------------------------------------------------------------ *)
(* Section 7: file server capacity                                     *)

(* The columns of a capacity run's row (key, (req/s, mean ms, server
   CPU, network)), the first headed [key]. *)
let capacity_columns ~key ~server_cpu =
  [
    Report.text key (fun (k, _) -> string_of_int k);
    Report.col "req/s" ~metric:"req_per_s" per_s (fun (_, (thr, _, _, _)) ->
        thr);
    Report.col "mean ms" ~metric:"mean_ms" msf (fun (_, (_, mean, _, _)) ->
        mean);
    Report.col server_cpu ~metric:"server_cpu_util" (pct "%.0f%%")
      (fun (_, (_, _, cpu, _)) -> cpu);
    Report.col "network" ~metric:"network_util" (pct "%.1f%%")
      (fun (_, (_, _, _, net)) -> net);
  ]

let section_7_capacity () =
  Report.section
    "Section 7: file-server capacity (90% page reads / 10% 64KB loads, \
     10 MHz server)";
  Report.table
    ~params:(fun (n, _) -> [ pi "clients" n; pi "servers" 1; pi "mhz" 10 ])
    (capacity_columns ~key:"workstations" ~server_cpu:"server-cpu")
    (without_metrics_capture (fun () ->
         R.capacity_sweep ~domains:!domains
           ~clients:[ 1; 2; 5; 10; 20; 30 ] ()));
  Report.note
    "Paper's estimate: ~28 requests/s per server; ~10 workstations \
     comfortable, 30+ overloaded; the network is never the bottleneck.";
  Report.note
    "Request latency inflates long before the wire saturates — the \
     paper's central capacity argument (the server, not the network, \
     limits a diskless cluster)."

(* ------------------------------------------------------------------ *)
(* Section 6.1: the diskless-vs-local-disk crossover                   *)

let section_6_crossover () =
  Report.section
    "Section 6.1: diskless workstation vs local-disk workstation (512 B \
     page reads off the disk, 10 MHz)";
  (* Page read with the file service on the given host and a real disk
     access per page (data cache disabled). *)
  let page_with_disk ~client_host ~latency_ms =
    let tb, fs, _srv =
      R.file_rig ~hosts:(max 2 client_host)
        ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms latency_ms))
        ~files:[ ("pages", 16 * 512) ] ()
    in
    Vfs.Fs.set_cache_enabled fs false;
    let client = TB.host tb client_host in
    R.as_process tb ~host:client_host (fun _ ->
        let conn = R.get (Vfs.Client.connect client.TB.kernel ()) in
        let h = R.get (Vfs.Client.open_file conn "pages") in
        let read i =
          ignore
            (R.get (Vfs.Client.read_page conn h ~block:(i mod 16) ~buf:0 ()))
        in
        read 0;
        (R.time_trials ~client ~server:(TB.host tb 1) ~trials:20 read)
          .R.elapsed)
  in
  let server_latency = 16 in
  let diskless = page_with_disk ~client_host:2 ~latency_ms:server_latency in
  Report.record
    ~params:[ ps "path" "diskless"; pi "server_disk_ms" server_latency;
              pi "mhz" 10 ]
    [ ("read_ms", m_ms diskless) ];
  Report.table
    ~params:(fun (local_latency, _) ->
      [ ps "path" "local"; pi "local_disk_ms" local_latency; pi "mhz" 10 ])
    [
      Report.text "local-disk ms" (fun (l, _) -> string_of_int l);
      Report.col "local-disk read" Report.ms ~metric:"read_ms" snd;
      Report.text
        (Printf.sprintf "diskless read (%d ms server)" server_latency)
        (fun _ -> Report.ms.show diskless);
      Report.text "winner" (fun (_, local) ->
          if local < diskless then "local disk" else "diskless");
    ]
    (List.map
       (fun l -> (l, page_with_disk ~client_host:1 ~latency_ms:l))
       [ 16; 18; 20; 21; 22; 24 ]);
  Report.note
    "Paper: 'If the average disk access time for a file server is 4.3 ms \
     less than the average local disk access time (or better), there is \
     no time penalty ... for remote file operations.' The crossover above \
     sits where the local disk is ~4.2 ms slower than the server's — \
     shared servers with faster disks and big caches erase the diskless \
     penalty."

(* ------------------------------------------------------------------ *)
(* Section 7 extensions: remote execution and multiple servers         *)

let section_7_exec () =
  Report.section
    "Section 7 extension: execute data-intensive programs ON the file \
     server";
  (* A program that scans a 32 KB file (64 pages), run two ways. *)
  let tb, _fs, _srv =
    R.file_rig ~latency:(Vfs.Disk.Fixed 0) ~files:[ ("scan", 64 * 512) ] ()
  in
  let k2 = TB.kernel tb 2 in
  let compute_per_page = Vfs.Server.exec_compute_ns_per_page in
  let rows =
    R.as_process tb ~host:2 (fun _ ->
        let conn = R.get (Vfs.Client.connect k2 ()) in
        let h = R.get (Vfs.Client.open_file conn "scan") in
        let medium = tb.TB.medium in
        let measure name key f =
          let c1 = TB.cpu tb 1 in
          let mk = Vhw.Cpu.mark c1 in
          let nm = Vnet.Medium.mark medium in
          let t0 = Vsim.Engine.now (K.engine k2) in
          f ();
          let elapsed = Vsim.Engine.now (K.engine k2) - t0 in
          let srv_cpu = Vhw.Cpu.busy_since c1 mk in
          let net_bytes = Vnet.Medium.bits_since medium nm / 8 in
          (name, key, elapsed, srv_cpu, net_bytes)
        in
        let exec =
          measure "execute at the server" "exec_at_server" (fun () ->
              ignore (R.get (Vfs.Client.exec_scan conn h ~block:0 ~count:64)))
        in
        let fetch =
          measure "fetch pages + scan locally" "fetch_and_scan" (fun () ->
              for b = 0 to 63 do
                ignore (R.get (Vfs.Client.read_page conn h ~block:b ~buf:0 ()));
                (* The same per-page computation, on the workstation. *)
                Vhw.Cpu.compute (TB.cpu tb 2) compute_per_page
              done)
        in
        [ exec; fetch ])
  in
  Report.table
    ~params:(fun (_, key, _, _, _) -> [ ps "strategy" key; pi "mhz" 10 ])
    [
      Report.text "strategy" (fun (name, _, _, _, _) -> name);
      Report.col "elapsed ms" ~metric:"elapsed_ms" Report.ms
        (fun (_, _, elapsed, _, _) -> elapsed);
      Report.col "server-cpu ms" ~metric:"server_cpu_ms" Report.ms
        (fun (_, _, _, srv_cpu, _) -> srv_cpu);
      Report.col "net bytes" ~metric:"net_bytes" Report.count
        (fun (_, _, _, _, net_bytes) -> net_bytes);
    ]
    rows;
  Report.note
    "The paper: 'For some programs, it is advantageous in terms of file \
     server processor requirements to execute the program on the file \
     server, rather than to load the program into a workstation and \
     subsequently field remote page requests from it.'"

let section_7_multi_server () =
  Report.section
    "Section 7 extension: adding file servers (30 workstations)";
  Report.table
    ~params:(fun (servers, _) ->
      [ pi "servers" servers; pi "clients" 30; pi "mhz" 10 ])
    (capacity_columns ~key:"file servers" ~server_cpu:"server cpu (mean)")
    (grid ~label:"servers"
       (fun servers -> (servers, R.capacity ~servers ~clients:30 ()))
       [ 1; 2; 3 ]);
  Report.note
    "The paper: 'a diskless workstation system can easily be extended to \
     handle more workstations by adding more file server machines since \
     the network would not seem to be a bottleneck for less than 100 \
     workstations.'"

(* ------------------------------------------------------------------ *)
(* Section 8: 10 Mb Ethernet                                           *)

let section_8_10mb () =
  Report.section "Section 8: preliminary 10 Mb Ethernet figures (8 MHz)";
  let srr = R.srr ~server_host:2 ~cpu_model:m8 ~medium_config:net10 () in
  let pr =
    (R.page_op ~cpu_model:m8 ~medium_config:net10 ~client_host:2
       ~write:false ~basic:false ())
      .R.elapsed
  in
  let load =
    R.program_load ~cpu_model:m8 ~medium_config:net10 ~transfer_unit:16384
      ~client_host:2 ()
  in
  Report.table
    ~params:(fun (_, measure, _) ->
      [ ps "measure" measure; pi "mhz" 8; pi "net" 10 ])
    [
      Report.text "measure" (fun (name, _, _) -> name);
      Report.col "sim" Report.ms ~metric:"elapsed_ms"
        ~paper:[ 2.71; 5.72; 255.0 ] ~paper_header:"paper"
        (fun (_, _, ns) -> ns);
    ]
    [
      ("remote S-R-R", "srr", srr.R.elapsed);
      ("remote page read", "page_read", pr);
      ("64KB load, 16Kb unit", "load_64kb", load.R.elapsed);
    ];
  Report.note
    "The paper attributes part of its 10 Mb improvement to 'slightly \
     faster network interfaces', which we do not model separately."

(* ------------------------------------------------------------------ *)
(* Baseline comparison: V IPC vs specialized protocol vs streaming      *)

let baseline_comparison () =
  Report.section
    "Baseline: V IPC file access vs specialized (WFS-style) protocol vs \
     network penalty (10 MHz, 3 Mb)";
  let v_read = R.page_op ~client_host:2 ~write:false ~basic:false () in
  let wfs_read =
    let tb = TB.create ~cpu_model:m10 ~hosts:2 () in
    let fs = TB.make_test_fs tb ~files:[ ("f", 16 * 512) ] () in
    let (_ : Vbaseline.Wfs.server) =
      Vbaseline.Wfs.start_server tb.TB.eng ~nic:(TB.nic tb 1) ~fs ()
    in
    let client =
      Vbaseline.Wfs.create_client tb.TB.eng ~nic:(TB.nic tb 2) ~server:1 ()
    in
    let inum = Option.get (Vfs.Fs.lookup fs "f") in
    let out = ref 0 in
    let (_ : Vsim.Proc.t) =
      Vsim.Proc.spawn tb.TB.eng (fun () ->
          (match Vbaseline.Wfs.read_page client ~inum ~block:0 () with
          | Ok _ -> ()
          | Error e -> failwith ("wfs: " ^ e));
          let c =
            R.time_trials ~client:(TB.host tb 2) ~server:(TB.host tb 1)
              ~trials:50 (fun i ->
                ignore
                  (Vbaseline.Wfs.read_page client ~inum ~block:(i mod 16) ()))
          in
          out := c.R.elapsed)
    in
    TB.run tb;
    !out
  in
  let p = R.penalty_ns ~cpu_model:m10 ~medium_config:net3 in
  let floor = p 64 + p 576 in
  let basic_read =
    (R.page_op ~client_host:2 ~write:false ~basic:true ()).R.elapsed
  in
  Report.table
    ~params:(fun (_, meth, _, _) ->
      [ ps "method" meth; pi "mhz" 10; pi "net" 3 ])
    [
      Report.text "method" (fun (name, _, _, _) -> name);
      Report.col "512B page read ms" ~metric:"page_read_ms" Report.ms
        (fun (_, _, ns, _) -> ns);
      Report.text "packets/page" (fun (_, _, _, packets) -> packets);
    ]
    [
      ("network penalty (floor)", "network_floor", floor, "2");
      ("specialized (WFS-style)", "wfs", wfs_read, "2");
      ("V IPC with segments", "v_segments", v_read.R.elapsed, "2");
      ("V IPC basic (Thoth)", "v_basic", basic_read, "4");
    ];
  Report.note
    "The paper's claim: V IPC is 'only slightly more expensive than a \
     lower bound imposed by the basic cost of network communication', so \
     specialized protocols have little headroom.";
  let stream_pp =
    let tb = TB.create ~cpu_model:m10 ~hosts:2 () in
    let fs =
      TB.make_test_fs tb ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 15))
        ~files:[ ("s", 30 * 512) ] ()
    in
    let inum = Option.get (Vfs.Fs.lookup fs "s") in
    Vfs.Fs.evict_cache fs;
    let (_ : Vbaseline.Streaming.server) =
      Vbaseline.Streaming.start_server tb.TB.eng ~nic:(TB.nic tb 1) ~fs ()
    in
    let out = ref 0 in
    let (_ : Vsim.Proc.t) =
      Vsim.Proc.spawn tb.TB.eng (fun () ->
          match
            Vbaseline.Streaming.stream_file tb.TB.eng ~nic:(TB.nic tb 2)
              ~server:1 ~inum ()
          with
          | Ok s -> out := s.Vbaseline.Streaming.per_page_ns
          | Error e -> failwith ("stream: " ^ e))
    in
    TB.run tb;
    !out
  in
  let v_seq = R.sequential_read ~disk_latency_ns:(Vsim.Time.ms 15) () in
  Report.record
    ~params:[ ps "method" "sequential"; pi "disk_ms" 15; pi "mhz" 10 ]
    [
      ("v_readahead_ms", m_ms v_seq);
      ("streaming_ms", m_ms stream_pp);
    ];
  Report.table
    [ Report.text "sequential read, 15 ms disk" fst;
      Report.col "ms/page" Report.ms snd ]
    [
      ("V synchronous + server read-ahead", v_seq);
      ("streaming (window 4)", stream_pp);
    ];
  Report.note
    "Streaming gains %.0f%% here — the paper bounds it at 10-20%% and \
     judges it not worth the buffering, copies and cache-consistency cost."
    ((1.0 -. (float_of_int stream_pp /. float_of_int v_seq)) *. 100.0)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

let ablations () =
  Report.section "Ablations: the paper's design-choice measurements";
  let base = R.srr ~server_host:2 ~cpu_model:m8 ~medium_config:net3 () in
  let ip =
    R.srr ~server_host:2 ~cpu_model:m8 ~medium_config:net3
      ~kernel_config:{ K.default_config with K.ip_header_mode = true }
      ()
  in
  let relay =
    R.srr ~server_host:2 ~cpu_model:m8 ~medium_config:net3
      ~kernel_config:{ K.default_config with K.process_server_mode = true }
      ()
  in
  let vs_raw ns = float_of_int ns /. float_of_int base.R.elapsed in
  Report.table
    ~params:(fun (_, config, _) ->
      [ ps "config" config; pi "mhz" 8; pi "net" 3 ])
    [
      Report.text "configuration" (fun (name, _, _) -> name);
      Report.col "remote S-R-R ms" ~metric:"srr_ms" Report.ms
        (fun (_, _, ns) -> ns);
      Report.col "vs raw" ~metric:"vs_raw"
        (Report.kind (Printf.sprintf "%.2fx") (Cat.metric ~units:"x"))
        (fun (_, _, ns) -> vs_raw ns);
    ]
    [
      ("raw data-link (the V kernel)", "raw", base.R.elapsed);
      ("layered internet (IP) headers", "ip_headers", ip.R.elapsed);
      ("process-level network server", "process_server", relay.R.elapsed);
    ];
  Report.note
    "Paper: IP headers cost ~20%% 'even without computing the IP header \
     checksum'; a process-level network server cost a factor of four (we \
     model only its extra copies and context switches, and measure ~2x).";
  let lossy =
    R.srr ~server_host:2 ~trials:200 ~cpu_model:m8 ~medium_config:net3
      ~fault:(Vnet.Fault.drop 0.05)
      ~kernel_config:
        { K.default_config with K.retransmit_timeout_ns = Vsim.Time.ms 20 }
      ()
  in
  Report.record
    ~params:[ ps "config" "lossy_5pct"; pi "mhz" 8; pi "net" 3 ]
    [ ("srr_ms", m_ms lossy.R.elapsed) ];
  Report.note
    "Under 5%% loss with T = 20 ms, exchanges still average %.2f ms — \
     reliability comes from the reply itself, with no extra packets on \
     the common path."
    (Vsim.Time.to_float_ms lossy.R.elapsed)

(* ------------------------------------------------------------------ *)
(* Span decomposition: the Table 5-1 penalty breakdown, measured live   *)

let span_decomposition () =
  Report.section
    "Span decomposition: remote page-read latency from the span correlator";
  let tb, _fs, _srv =
    R.file_rig ~hosts:2 ~latency:(Vfs.Disk.Fixed 0)
      ~files:[ ("pages", 16 * 512) ] ()
  in
  let spans = Vobs.Spans.attach tb.TB.eng in
  let trials = 50 in
  let elapsed = ref 0 and t_start = ref 0 in
  R.as_process tb ~host:2 (fun _ ->
      let k = TB.kernel tb 2 in
      let conn = R.get (Vfs.Client.connect k ()) in
      let h = R.get (Vfs.Client.open_file conn "pages") in
      (* Warm the server's block cache so measured reads are uniform. *)
      ignore (R.get (Vfs.Client.read_page conn h ~block:0 ~buf:0 ()));
      let eng = K.engine k in
      t_start := Vsim.Engine.now eng;
      for i = 1 to trials do
        ignore (R.get (Vfs.Client.read_page conn h ~block:(i mod 16) ~buf:0 ()))
      done;
      elapsed := Vsim.Engine.now eng - !t_start);
  let measured =
    List.filter (fun s -> s.Vobs.Spans.t_open >= !t_start)
      (Vobs.Spans.spans spans)
  in
  let n = List.length measured in
  assert (n = trials);
  assert (Vobs.Spans.open_count spans = 0);
  let span_sum =
    List.fold_left (fun a s -> a + Vobs.Spans.total_ns s) 0 measured
  in
  (* Every nanosecond of client-observed latency is attributed to a
     segment: no sim-time work happens between page reads, so the spans
     tile the measurement window exactly. *)
  assert (!elapsed = span_sum);
  List.iter (fun s -> assert (Vobs.Spans.total_ns s
                              = Vobs.Spans.segments_sum s)) measured;
  let labels =
    match measured with
    | s :: _ -> List.map fst s.Vobs.Spans.segments
    | [] -> []
  in
  let mean_of label =
    List.fold_left
      (fun a s -> a + List.assoc label s.Vobs.Spans.segments)
      0 measured
    / n
  in
  Report.record
    ~params:[ pi "trials" trials; pi "mhz" 10 ]
    (("total_ms", m_ms (!elapsed / n))
     :: List.map (fun label -> (label ^ "_ms", m_ms (mean_of label))) labels);
  Report.table
    [
      Report.text "segment" Fun.id;
      Report.text "mean ms" (fun label ->
          Printf.sprintf "%.3f" (Vsim.Time.to_float_ms (mean_of label)));
      Report.text "share" (fun label ->
          Printf.sprintf "%4.1f%%"
            (100.0 *. float_of_int (mean_of label * n)
            /. float_of_int span_sum));
    ]
    labels;
  Report.note
    "%d remote page reads: elapsed %s ms = sum of %d span totals \
     (exact); every span's segments sum to its total."
    trials (Report.ms.show !elapsed) n

(* ------------------------------------------------------------------ *)
(* Client-side block cache: warm-hit speedup and the capacity crossover *)

let cache_crossover () =
  Report.section
    "Client block cache: warm re-read vs remote page read, and the \
     LRU capacity crossover (10 MHz, 3 Mb Ethernet)";
  let remote = R.page_op ~client_host:2 ~write:false ~basic:false () in
  let wt = Vfs.Cache.Write_through in
  (* Warm working set entirely resident: every re-read is a hit. *)
  let fit =
    R.cached_read ~cache_blocks:32 ~working_set:16 ~policy:wt ()
  in
  Report.table
    [ Report.text "path" fst; Report.col "per-read ms" Report.ms snd ]
    [
      ("remote page read (Table 6-1)", remote.R.elapsed);
      ("cached, cold pass", fit.R.cold_ns);
      ("cached, warm re-read", fit.R.warm_ns);
    ];
  let speedup =
    float_of_int remote.R.elapsed /. float_of_int (max 1 fit.R.warm_ns)
  in
  Report.record
    ~params:[ ps "measure" "warm_hit"; pi "mhz" 10; pi "net" 3 ]
    [
      ("remote_ms", m_ms remote.R.elapsed);
      ("cold_ms", m_ms fit.R.cold_ns);
      ("warm_ms", m_ms fit.R.warm_ns);
      ("speedup", Cat.metric ~units:"x" ~better:Cat.Higher speedup);
    ];
  Report.note
    "Warm cached re-read is %.1fx cheaper than the remote page read."
    speedup;
  (* The acceptance bar: a warm hit must beat the paper's remote page
     read by at least an order of magnitude. *)
  assert (remote.R.elapsed >= 10 * fit.R.warm_ns);
  (* Sweep the working set across the cache capacity.  A cyclic scan is
     LRU's worst case: one block over capacity and the hit rate falls
     off a cliff, since each block is evicted just before its reuse. *)
  let cap = 32 in
  let stats (_, r) =
    match r.R.cache_stats with
    | Some s -> (s.Vfs.Cache.hits, s.Vfs.Cache.misses, s.Vfs.Cache.evictions)
    | None -> (0, 0, 0)
  in
  Report.table
    ~params:(fun (ws, _) ->
      [ ps "measure" "lru_sweep"; pi "working_set" ws; pi "cache_blocks" cap ])
    [
      Report.text "working set (cap 32)" (fun (ws, _) -> string_of_int ws);
      Report.col "warm ms/read" ~metric:"warm_ms" Report.ms (fun (_, r) ->
          r.R.warm_ns);
      Report.col "hit rate" ~metric:"hit_rate"
        (Report.kind (Printf.sprintf "%.2f")
           (Cat.metric ~units:"frac" ~better:Cat.Higher))
        (fun row ->
          let hits, misses, _ = stats row in
          float_of_int hits /. float_of_int (max 1 (hits + misses)));
      Report.col "evictions" ~metric:"evictions" Report.count (fun row ->
          let _, _, evicts = stats row in
          evicts);
    ]
    (grid ~label:"lru"
       (fun ws ->
         ( ws,
           R.cached_read ~cache_blocks:cap ~working_set:ws ~file_blocks:64
             ~policy:wt () ))
       [ 8; 16; 24; 32; 40; 48 ]);
  Report.note
    "Past the capacity crossover (ws > 32) the cyclic scan defeats LRU \
     and every warm read goes remote again.";
  (* Write policies: write-through pays the server per write and has
     nothing to flush; write-back runs at memory speed until flush. *)
  let flushed = function Some s -> s.Vfs.Cache.writebacks | None -> 0 in
  let wt_write, wt_flush, wt_stats =
    R.cached_write ~blocks:16 ~cache_blocks:32
      ~policy:Vfs.Cache.Write_through ()
  in
  let wb_write, wb_flush, wb_stats =
    R.cached_write ~blocks:16 ~cache_blocks:32 ~policy:Vfs.Cache.Write_back
      ()
  in
  let wt_flushed = flushed wt_stats and wb_flushed = flushed wb_stats in
  Report.table
    ~params:(fun (_, policy, _, _, _) ->
      [ ps "measure" "write_policy"; ps "policy" policy ])
    [
      Report.text "policy" (fun (name, _, _, _, _) -> name);
      Report.col "per-write ms" ~metric:"per_write_ms" Report.ms
        (fun (_, _, w, _, _) -> w);
      Report.col "flush total ms" ~metric:"flush_ms" Report.ms
        (fun (_, _, _, fl, _) -> fl);
      Report.text "blocks flushed" (fun (_, _, _, _, flushed) ->
          string_of_int flushed);
    ]
    [
      ("write-through", "write_through", wt_write, wt_flush, wt_flushed);
      ("write-back", "write_back", wb_write, wb_flush, wb_flushed);
    ];
  assert (wb_flushed = 16);
  assert (wt_flush = 0 && wt_flushed = 0);
  Report.note
    "Write-back defers all 16 page writes to the flush; write-through \
     pays them inline (per-write ~= the remote page write of Table 6-1)."

(* ------------------------------------------------------------------ *)
(* Loss sweep: fixed vs adaptive retransmission timers                 *)

let loss_sweep () =
  Report.section
    "Loss sweep: fixed 200 ms vs adaptive (Jacobson/Karn) retransmission \
     timers (10 MHz, 10 Mb Ethernet)";
  (* For each drop probability and timer mode, run identically seeded
     batches of S-R-R exchanges and compare median per-batch elapsed
     times.  The median (not the mean) is what a user feels: with fixed
     timers a single lost packet stalls the client for the full 200 ms,
     while the adaptive RTO converges to ~1.5x the measured round trip
     and recovers in a few milliseconds. *)
  let batch = 20 and batches = 31 in
  let median_batch_ns mode drop =
    let kcfg = { K.default_config with K.rto_mode = mode } in
    let tb =
      TB.create ~seed:7L ~cpu_model:m10 ~medium_config:net10
        ~kernel_config:kcfg ~hosts:2 ()
    in
    let k1 = TB.kernel tb 1 in
    if drop > 0.0 then
      Vnet.Medium.set_fault tb.TB.medium (Vnet.Fault.drop drop);
    let server = R.start_echo (TB.kernel tb 2) in
    let samples = ref [] in
    R.as_process tb ~host:1 (fun _ ->
        let msg = Msg.create () in
        for _ = 1 to batches do
          let t0 = Vsim.Engine.now (K.engine k1) in
          for _ = 1 to batch do
            (* At high drop rates an exchange can exhaust its retries and
               surface Retryable/Dead; a real client retries, and the
               wasted time counts toward the batch like any other stall. *)
            let rec go () =
              match K.send k1 msg server with K.Ok -> () | _ -> go ()
            in
            go ()
          done;
          samples := (Vsim.Engine.now (K.engine k1) - t0) :: !samples
        done);
    let sorted = List.sort compare !samples in
    List.nth sorted (List.length sorted / 2)
  in
  let drops = [ 0.0; 0.02; 0.05; 0.10; 0.20 ] in
  let rows =
    grid ~label:"loss"
      (fun d -> (d, median_batch_ns K.Fixed d, median_batch_ns K.Adaptive d))
      drops
  in
  Report.table
    ~params:(fun (d, _, _) ->
      [ ps "drop" (Printf.sprintf "%.2f" d); pi "mhz" 10; pi "net" 10 ])
    [
      Report.text "drop prob" (fun (d, _, _) -> Printf.sprintf "%.2f" d);
      Report.col "fixed median ms/batch" ~metric:"fixed_median_ms" Report.ms
        (fun (_, f, _) -> f);
      Report.col "adaptive median ms/batch" ~metric:"adaptive_median_ms"
        Report.ms (fun (_, _, a) -> a);
    ]
    rows;
  Report.note
    "Each batch is %d request-reply exchanges; medians over %d batches."
    batch batches;
  (* Acceptance bars: at zero loss the adaptive timer must cost nothing
     (no timer ever fires, so the runs are identical); under real loss
     it must strictly beat the fixed 200 ms timer. *)
  List.iter
    (fun (d, f, a) ->
      if d = 0.0 then assert (a <= f)
      else if d >= 0.05 then assert (a < f))
    rows

(* ------------------------------------------------------------------ *)
(* Server scaling: worker teams over a queued disk                     *)

let server_scaling () =
  Report.section
    "Server scaling: worker-team file server vs clients (random page \
     reads, data cache off, 3.5 ms fs work + 8 ms disk, 10 MHz)";
  let worker_counts = [ 1; 2; 4 ] in
  let client_counts = [ 2; 8; 30 ] in
  let rows =
    without_metrics_capture (fun () ->
        R.contention_sweep ~domains:!domains
          ~grid:
            (List.concat_map
               (fun w -> List.map (fun n -> (w, n)) client_counts)
               worker_counts)
          ())
    |> List.map (fun ((w, n), c) -> (w, n, c))
  in
  let ms1 = Report.kind f1 m_msf in
  Report.table
    ~params:(fun (w, n, _) -> [ pi "workers" w; pi "clients" n ])
    [
      Report.text "workers" (fun (w, _, _) -> string_of_int w);
      Report.text "clients" (fun (_, n, _) -> string_of_int n);
      Report.col "reads/s" ~metric:"reads_per_s" per_s (fun (_, _, c) ->
          c.R.c_throughput);
      Report.col "mean ms" ~metric:"mean_ms" ms1 (fun (_, _, c) ->
          c.R.c_mean_ms);
      Report.col "p95 ms" ~metric:"p95_ms" ms1 (fun (_, _, c) -> c.R.c_p95_ms);
      Report.col "disk waits" ~metric:"disk_waits" Report.count
        (fun (_, _, c) -> c.R.c_disk_waits);
      Report.col "max disk queue" ~metric:"max_disk_queue" Report.count
        (fun (_, _, c) -> c.R.c_max_disk_queue);
    ]
    rows;
  Report.note
    "One worker serializes each request's ~3.5 ms of file-system CPU \
     behind its 8 ms disk access; a team keeps the disk queue fed while \
     other workers compute, so throughput approaches the slower stage's \
     rate instead of the sum of both.";
  (* Acceptance bars: at 30 clients a 4-worker team must deliver at
     least 1.5x the single-worker throughput, and only the team has a
     dispatcher handing requests to workers. *)
  let at w n =
    let _, _, c = List.find (fun (w', n', _) -> w' = w && n' = n) rows in
    c
  in
  assert ((at 4 30).R.c_throughput >= 1.5 *. (at 1 30).R.c_throughput);
  assert ((at 1 30).R.c_dispatches = 0);
  assert ((at 4 30).R.c_dispatches > 0)

(* ------------------------------------------------------------------ *)
(* vcheck fault-schedule sweep                                         *)

let check_sweep () =
  Report.section
    "vcheck: deterministic fault-schedule sweep over the scripted IPC \
     workload (schedules run per depth)";
  let depths = [ (1, 200); (2, 600) ] in
  let rows =
    List.map
      (fun (depth, limit) ->
        match
          without_metrics_capture (fun () ->
              Vcheck.Checker.sweep ~depth ~limit ~domains:!domains ())
        with
        | Error _ -> failwith "check_sweep: baseline workload violated"
        | Ok res ->
            if res.Vcheck.Checker.failure <> None then
              failwith "check_sweep: sweep found an invariant violation";
            (depth, res.Vcheck.Checker.schedules_run))
      depths
  in
  Report.table
    ~params:(fun (depth, _) -> [ pi "depth" depth ])
    [
      Report.text "depth" (fun (depth, _) -> string_of_int depth);
      Report.col "schedules" ~metric:"schedules" Report.count snd;
    ]
    rows;
  Report.note
    "Each schedule is a full six-operation workload run under injected \
     drop/duplicate/delay/reorder faults, judged against the paper's \
     exactly-once and termination claims."

(* ------------------------------------------------------------------ *)
(* Journal overhead: write amplification of the write-ahead journal    *)

let journal_overhead () =
  Report.section
    "Journal overhead: disk writes for a fixed 32-op write workload, \
     journaled vs raw (write amplification)";
  let bs = Vfs.Fs.block_size in
  let ops = 32 in
  (* The same workload against a freshly formatted disk, with and
     without a journal region: create one file, then [ops] single-block
     writes cycling over 8 block positions.  Only the disk-write count
     matters, so latency is zero. *)
  let run_config journal_blocks =
    let eng = Vsim.Engine.create () in
    let disk =
      Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:512
        ~block_size:bs ()
    in
    let writes = ref 0 in
    let ok = function
      | Ok v -> v
      | Error e -> failwith ("journal_overhead: " ^ Vfs.Fs.error_to_string e)
    in
    let (_ : Vsim.Proc.t) =
      Vsim.Proc.spawn eng (fun () ->
          Vfs.Fs.format disk ~journal_blocks ~ninodes:32 ();
          let fs = ok (Vfs.Fs.mount disk) in
          let inum = ok (Vfs.Fs.create fs "data") in
          let base = Vfs.Disk.writes disk in
          for k = 0 to ops - 1 do
            let block =
              Bytes.init bs (fun i ->
                  Char.chr (((k * 131) + (i * 7)) land 0xff))
            in
            ok (Vfs.Fs.write fs ~inum ~pos:(k mod 8 * bs) block)
          done;
          writes := Vfs.Disk.writes disk - base)
    in
    Vsim.Engine.run eng;
    !writes
  in
  let results =
    grid ~label:"journal" (fun j -> (j, run_config j)) [ 0; 64 ]
  in
  let raw = List.assoc 0 results in
  let journaled = List.assoc 64 results in
  let amp = float_of_int journaled /. float_of_int raw in
  Report.table
    ~params:(fun (j, _) -> [ pi "journal_blocks" j; pi "ops" ops ])
    [
      Report.text "journal_blocks" (fun (j, _) -> string_of_int j);
      Report.col "disk writes" ~metric:"disk_writes" Report.count snd;
      Report.text "writes/op" (fun (_, w) ->
          Printf.sprintf "%.2f" (float_of_int w /. float_of_int ops));
    ]
    results;
  Report.record ~params:[ pi "ops" ops ]
    [ ("write_amplification", Cat.metric ~units:"x" amp) ];
  Report.note
    "Each journaled write pays descriptor + after-image + commit before \
     the checkpoint write to the home block; retire batches across \
     transactions.  The amplification is the durability price of \
     surviving a crash at any record boundary (doc/RECOVERY.md).";
  (* Acceptance bar: journaling costs extra writes, but a bounded
     multiple of the raw ones. *)
  assert (journaled > raw && raw > 0);
  assert (1.0 < amp && amp < 10.0)

(* ------------------------------------------------------------------ *)
(* Lease coherence: server traffic per open-read-close cycle           *)

let lease_coherence () =
  Report.section
    "Lease/callback coherence: server requests per open-read-close cycle \
     of a warm cached file, leases off (open-close revalidation) vs on \
     (doc/LEASES.md)";
  let bs = Vfs.Fs.block_size in
  let file_blocks = 4 in
  let cycles = 8 in
  (* One client re-running open / read-everything / close against a warm
     write-through cache.  Without leases every cycle pays the open
     (revalidation point) and close RPCs even though the data hasn't
     moved; with leases the close parks the handle under the live lease
     and the reopen touches the server zero times.  The server's own
     request counter is the witness. *)
  let run_mode ~lease =
    let tb = TB.create ~hosts:2 () in
    let eng = tb.TB.eng in
    let fs =
      TB.make_test_fs tb ~host:2 ~files:[ ("bench", file_blocks * bs) ] ()
    in
    let server = Vfs.Server.start (TB.kernel tb 2) fs () in
    let warm = ref 0 and reopen_min = ref max_int and reopen_max = ref 0 in
    let lease_valid_on_reopen = ref true in
    let k1 = TB.kernel tb 1 in
    let (_ : Vkernel.Pid.t) =
      K.spawn k1 ~name:"bench-client" (fun _ ->
          let cache =
            Vfs.Cache.create eng ~host:(K.host k1)
              { Vfs.Cache.capacity_blocks = file_blocks * 2;
                policy = Vfs.Cache.Write_through }
          in
          let conn = Result.get_ok (Vfs.Client.connect k1 ()) in
          let io = Vfs.Client.Io.make ~cache ~lease conn in
          let ok = function
            | Ok v -> v
            | Error e ->
                failwith
                  ("lease_coherence: " ^ Vfs.Client.error_to_string e)
          in
          let cycle () =
            let f = ok (Vfs.Client.Io.open_file io "bench") in
            for b = 0 to file_blocks - 1 do
              ignore (ok (Vfs.Client.Io.read f ~off:(b * bs) ~len:bs))
            done;
            f
          in
          (* Cold cycle: populates the cache (and takes the lease). *)
          let f = cycle () in
          if lease then
            lease_valid_on_reopen :=
              !lease_valid_on_reopen && Vfs.Client.Io.file_lease_valid f;
          ok (Vfs.Client.Io.close f);
          let before = Vfs.Server.requests_served server in
          for _ = 1 to cycles do
            let from = Vfs.Server.requests_served server in
            let f = cycle () in
            let cost = Vfs.Server.requests_served server - from in
            reopen_min := min !reopen_min cost;
            reopen_max := max !reopen_max cost;
            if lease then
              lease_valid_on_reopen :=
                !lease_valid_on_reopen && Vfs.Client.Io.file_lease_valid f;
            ok (Vfs.Client.Io.close f)
          done;
          warm := Vfs.Server.requests_served server - before)
    in
    Vsim.Engine.run eng;
    (!warm, !reopen_min, !reopen_max, !lease_valid_on_reopen)
  in
  let off_total, _, _, _ = run_mode ~lease:false in
  let on_total, on_min, on_max, on_lease_held = run_mode ~lease:true in
  let per_cycle total = float_of_int total /. float_of_int cycles in
  Report.table
    ~params:(fun (_, mode, _) ->
      [ ps "mode" mode; pi "cycles" cycles; pi "file_blocks" file_blocks ])
    [
      Report.text "mode" (fun (name, _, _) -> name);
      Report.col "server requests" ~metric:"server_requests" Report.count
        (fun (_, _, total) -> total);
      Report.col "requests/open-close cycle" ~metric:"requests_per_open"
        (Report.kind f1 (Cat.metric ~units:"count"))
        (fun (_, _, total) -> per_cycle total);
    ]
    [ ("leases off", "lease_off", off_total);
      ("leases on", "lease_on", on_total) ];
  Report.note
    "With a live lease the close parks the server handle and the reopen \
     revalidates nothing: the whole warm cycle is local.";
  (* The acceptance bar: every reopen under a valid lease costs zero
     server requests, and the lease actually stood for all cycles. *)
  assert on_lease_held;
  assert (on_min = 0 && on_max = 0);
  assert (on_total = 0 && off_total > on_total)

(* ------------------------------------------------------------------ *)
(* Internetwork: the gateway hop penalty                               *)

let gateway_penalty () =
  Report.section
    "Internetwork: Send-Receive-Reply across the store-and-forward \
     gateway — client on the 3 Mb segment, echo servers on the same \
     segment (near) and behind the gateway on the 10 Mb segment (far)";
  let rows =
    grid ~label:"gateway"
      (fun (mhz, cpu_model) ->
        let near, far = R.srr_gateway ~cpu_model () in
        (mhz, near, far))
      [ (8, m8); (10, m10) ]
  in
  Report.table
    ~params:(fun (mhz, _, _) -> [ pi "mhz" mhz ])
    [
      Report.text "mhz" (fun (mhz, _, _) -> string_of_int mhz);
      Report.col "same-segment ms" ~metric:"same_segment_ms" Report.ms
        (fun (_, near, _) -> near.R.elapsed);
      Report.col "cross-segment ms" ~metric:"cross_segment_ms" Report.ms
        (fun (_, _, far) -> far.R.elapsed);
      Report.col "hop penalty ms" ~metric:"hop_penalty_ms" Report.ms
        (fun (_, near, far) -> far.R.elapsed - near.R.elapsed);
    ]
    rows;
  Report.note
    "The penalty is two store-and-forward hops per exchange (request and \
     reply each pay the gateway's per-frame CPU, its queue, and a second \
     wire) — the number the paper's same-segment tables omit, and the \
     reason V placed file servers on the same segment as their clients.";
  (* Acceptance: the cross-segment exchange must cost strictly more than
     the same-segment one, and the 10 MHz machine must beat the 8 MHz. *)
  List.iter
    (fun (_, near, far) -> assert (far.R.elapsed > near.R.elapsed))
    rows

(* ------------------------------------------------------------------ *)
(* Boot storm: multicast image distribution to diskless clients        *)

let boot_storm () =
  Report.section
    "Boot storm: N diskless clients multicast-load one kernel image (64 KB \
     unless noted) from one boot server across the 10 Mb / 3 Mb gateway \
     (pages paced to the gateway, NACK-driven repair rounds; Section 6's \
     diskless-workstation argument)";
  let module B = Vworkload.Boot in
  let rows =
    grid ~label:"boot"
      (fun (clients, pages) ->
        let config = { B.default_config with pages } in
        let r = B.run ~config ~segments:(B.default_segments ~clients) () in
        if not r.B.completed then
          failwith "boot_storm: storm did not complete";
        (clients, pages, r))
      ([ (8, 128); (16, 128); (32, 128); (64, 128) ]
      @ [ (128, 256); (128, 512); (128, 1024) ])
  in
  let ms1 = Report.kind (fun ns -> f1 (Vsim.Time.to_float_ms ns)) m_ms in
  let per_k f (_, _, r) = f (B.cost_per_1000_clients r) in
  Report.table
    ~params:(fun (clients, pages, _) ->
      if pages = B.default_config.pages then [ pi "clients" clients ]
      else [ pi "clients" clients; pi "pages" pages ])
    [
      Report.text "clients" (fun (clients, _, _) -> string_of_int clients);
      Report.text "pages" (fun (_, pages, _) -> string_of_int pages);
      Report.col "elapsed ms" ~metric:"elapsed_ms" ms1 (fun (_, _, r) ->
          r.B.elapsed_ns);
      Report.col "rounds" ~metric:"rounds" Report.count (fun (_, _, r) ->
          r.B.rounds);
      Report.hidden "resent_pages" m_count (fun (_, _, r) -> r.B.resent_pages);
      Report.col "server cpu ms" ~metric:"server_cpu_ms" ms1 (fun (_, _, r) ->
          r.B.server_cpu_ns);
      Report.col "wire bytes" ~metric:"wire_bytes" Report.count
        (fun (_, _, r) -> r.B.wire_bytes);
      Report.col "cpu s /1k clients" ~metric:"server_s_per_1000_clients"
        (Report.kind (Printf.sprintf "%.2f") (Cat.metric ~units:"s"))
        (per_k fst);
      Report.hidden "net_bytes_per_1000_clients" (Cat.metric ~units:"bytes")
        (per_k snd);
    ]
    rows;
  Report.note
    "One multicast serves every client on a segment and one gateway \
     re-broadcast serves the far segment, so wire bytes and server CPU \
     are driven by image size and loss repair, not client count — the \
     paper's case that one file server can boot a building of diskless \
     workstations.  Pages leave the server one gateway forwarding time \
     apart, so on a clean wire every storm finishes in one round.";
  (* Acceptance: one round on a clean wire; multicast economics — 8x the
     clients must cost well under 8x the bytes on the wire, and server
     CPU per 1000 clients must fall below half. *)
  List.iter (fun (_, _, r) -> assert (r.B.rounds = 1)) rows;
  let at n =
    let _, _, r =
      List.find (fun (c, p, _) -> c = n && p = B.default_config.pages) rows
    in
    r
  in
  assert (float_of_int (at 64).B.wire_bytes
          < 4.0 *. float_of_int (at 8).B.wire_bytes);
  let cpu_per_k n = fst (B.cost_per_1000_clients (at n)) in
  assert (cpu_per_k 64 < cpu_per_k 8 /. 2.0)

(* ------------------------------------------------------------------ *)
(* Engine profiler: where do the simulation's events go?               *)

let profile () =
  Report.section
    "Engine profile: contention rig (4 workers, 8 clients) under the \
     deterministic event profiler";
  let prof = Vsim.Profile.create () in
  (* Chain, don't clobber: the driver may already have a create hook
     installed (Report.run uses one to attach metrics registries). *)
  let prev = Vsim.Engine.get_create_hook () in
  Vsim.Engine.with_create_hook
    (Some
       (fun eng ->
         ignore (Vsim.Engine.enable_profiling ~profile:prof eng);
         match prev with Some h -> h eng | None -> ()))
    (fun () -> ignore (R.contention ~workers:4 ~clients:8 ()));
  Format.printf "%a@." Vsim.Profile.pp prof;
  Report.record ~params:[ pi "workers" 4; pi "clients" 8 ]
    (("events", m_count (Vsim.Profile.events prof))
     :: List.map
          (fun (kind, e) ->
            ("fires." ^ kind, m_count e.Vsim.Profile.fires))
          (Vsim.Profile.entries prof))
