module K = Vkernel.Kernel
module Msg = Vkernel.Msg

type cols = { elapsed : int; client_cpu : int; server_cpu : int }

let time_trials ~client ~server ~trials op =
  if trials < 1 then invalid_arg "Rigs.time_trials: trials must be >= 1";
  let eng = K.engine client.Testbed.kernel in
  let per_trial (h : Testbed.host) mark =
    Vhw.Cpu.busy_since h.cpu mark / trials
  in
  let mkc = Vhw.Cpu.mark client.Testbed.cpu in
  let mks = Vhw.Cpu.mark server.Testbed.cpu in
  let t0 = Vsim.Engine.now eng in
  for i = 1 to trials do
    op i
  done;
  {
    elapsed = (Vsim.Engine.now eng - t0) / trials;
    client_cpu = per_trial client mkc;
    server_cpu = per_trial server mks;
  }

let start_echo k =
  K.spawn k ~name:"echo" (fun _ ->
      let msg = Msg.create () in
      let rec loop () =
        let src = K.receive k msg in
        Msg.set_u8 msg 4 ((Msg.get_u8 msg 4 + 1) land 0xFF);
        (match K.reply k msg src with
        | K.Ok -> ()
        | st -> Fmt.failwith "echo reply: %s" (K.status_to_string st));
        loop ()
      in
      loop ())

let as_process tb ~host f =
  let out = ref None in
  let (_ : Vkernel.Pid.t) =
    K.spawn (Testbed.kernel tb host) ~name:"rig" (fun pid ->
        out := Some (f pid))
  in
  Testbed.run tb;
  match !out with
  | Some v -> v
  | None -> failwith "Rigs.as_process: the rig process did not finish"

let srr ?(trials = 50) ~cpu_model ~medium_config ?fault
    ?(kernel_config = K.default_config) ?seed ~server_host () =
  let tb =
    Testbed.create ?seed ~cpu_model ~medium_config ~kernel_config
      ~hosts:server_host ()
  in
  (match fault with
  | Some f -> Vnet.Medium.set_fault tb.Testbed.medium f
  | None -> ());
  let server = start_echo (Testbed.kernel tb server_host) in
  let k = Testbed.kernel tb 1 in
  as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      ignore (K.send k msg server);
      time_trials ~client:(Testbed.host tb 1)
        ~server:(Testbed.host tb server_host) ~trials (fun _ ->
          ignore (K.send k msg server)))

let gettime ~cpu_model ?seed () =
  let tb = Testbed.create ?seed ~cpu_model ~hosts:1 () in
  let h = Testbed.host tb 1 in
  (as_process tb ~host:1 (fun _ ->
       time_trials ~client:h ~server:h ~trials:50 (fun _ ->
           ignore (K.get_time h.Testbed.kernel))))
    .elapsed

let move ?(trials = 30) ~cpu_model ~medium_config ~count ~to_remote ?seed
    ~sender_host () =
  let tb =
    Testbed.create ?seed ~cpu_model ~medium_config ~hosts:sender_host ()
  in
  let k = Testbed.kernel tb 1 in
  let out = ref None in
  let mover =
    K.spawn k ~name:"mover" (fun _ ->
        let msg = Msg.create () in
        let src = K.receive k msg in
        let op _ =
          match
            if to_remote then K.move_to k ~dst_pid:src ~dst:0 ~src:0 ~count
            else K.move_from k ~src_pid:src ~dst:0 ~src:0 ~count
          with
          | K.Ok -> ()
          | st -> Fmt.failwith "Rigs.move: %s" (K.status_to_string st)
        in
        op 0;
        out :=
          Some
            (time_trials ~client:(Testbed.host tb 1)
               ~server:(Testbed.host tb sender_host) ~trials op);
        ignore (K.reply k msg src))
  in
  as_process tb ~host:sender_host (fun _ ->
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:(128 * 1024);
      Msg.set_no_piggyback msg;
      ignore (K.send (Testbed.kernel tb sender_host) msg mover));
  Option.get !out

let penalty_ns ~cpu_model ~medium_config n =
  cpu_model.Vhw.Cost_model.pkt_send_setup_ns
  + cpu_model.Vhw.Cost_model.pkt_recv_handling_ns
  + medium_config.Vnet.Medium.latency_ns
  + (n
     * ((2 * cpu_model.Vhw.Cost_model.nic_copy_ns_per_byte)
       + Vnet.Medium.byte_time_ns medium_config))

let measure_penalty ?(trials = 100) ?seed ~cpu_model ~medium_config n =
  let tb = Testbed.create ?seed ~cpu_model ~medium_config ~hosts:2 () in
  let eng = tb.Testbed.eng in
  let nic1 = Testbed.nic tb 1 and nic2 = Testbed.nic tb 2 in
  let pending = ref None in
  Vnet.Nic.set_receiver nic2 ~ethertype:Vnet.Frame.ethertype_raw (fun _ ->
      match !pending with
      | Some k ->
          pending := None;
          k (Vsim.Engine.now eng)
      | None -> ());
  let acc = Vsim.Stat.Acc.create () in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        for _ = 1 to trials do
          let t0 = Vsim.Engine.now eng in
          let arrival =
            Vsim.Proc.suspend (fun resume ->
                pending := Some resume;
                Vnet.Nic.send_k nic1 ~dst:2
                  ~ethertype:Vnet.Frame.ethertype_raw (Bytes.make n 'p')
                  ignore)
          in
          Vsim.Stat.Acc.add acc (float_of_int (arrival - t0))
        done)
  in
  Vsim.Engine.run eng;
  int_of_float (Vsim.Stat.Acc.mean acc)

let get = function
  | Ok v -> v
  | Error e -> Fmt.failwith "rig client: %s" (Vfs.Client.error_to_string e)

let file_rig ?(hosts = 2) ?(cpu_model = Vhw.Cost_model.sun_10mhz)
    ?(medium_config = Vnet.Medium.config_3mb) ?server_config ?latency ?seed
    ~files () =
  let tb = Testbed.create ?seed ~cpu_model ~medium_config ~hosts () in
  let fs = Testbed.make_test_fs tb ?latency ~files () in
  let server =
    Vfs.Server.start (Testbed.kernel tb 1) fs ?config:server_config ()
  in
  (tb, fs, server)

let page_op ?(trials = 50) ?(cpu_model = Vhw.Cost_model.sun_10mhz)
    ?(medium_config = Vnet.Medium.config_3mb) ?(workers = 1) ?seed
    ~client_host ~write ~basic () =
  let tb, _fs, _srv =
    file_rig ?seed ~hosts:(max 2 client_host) ~cpu_model ~medium_config
      ~server_config:{ Vfs.Server.default_config with workers }
      ~latency:(Vfs.Disk.Fixed 0) ~files:[ ("pages", 16 * 512) ] ()
  in
  let k = Testbed.kernel tb client_host in
  as_process tb ~host:client_host (fun _ ->
      let conn = get (Vfs.Client.connect k ()) in
      let h = get (Vfs.Client.open_file conn "pages") in
      let op block =
        match write, basic with
        | false, false -> get (Vfs.Client.read_page conn h ~block ~buf:0 ())
        | false, true ->
            get (Vfs.Client.read_page_basic conn h ~block ~buf:0 ())
        | true, false ->
            get (Vfs.Client.write_page conn h ~block ~buf:0 ~count:512)
        | true, true ->
            get (Vfs.Client.write_page_basic conn h ~block ~buf:0 ~count:512)
      in
      ignore (op 0);
      time_trials ~client:(Testbed.host tb client_host)
        ~server:(Testbed.host tb 1) ~trials (fun i -> ignore (op (i mod 16))))

let program_load ?(cpu_model = Vhw.Cost_model.sun_10mhz)
    ?(medium_config = Vnet.Medium.config_3mb) ?seed ~transfer_unit
    ~client_host () =
  let server_config =
    { Vfs.Server.default_config with Vfs.Server.transfer_unit }
  in
  let tb, _fs, _srv =
    file_rig ?seed ~hosts:(max 2 client_host) ~cpu_model ~medium_config
      ~server_config ~latency:(Vfs.Disk.Fixed 0) ~files:[ ("prog", 65536) ]
      ()
  in
  let k = Testbed.kernel tb client_host in
  as_process tb ~host:client_host (fun _ ->
      let conn = get (Vfs.Client.connect k ()) in
      let h = get (Vfs.Client.open_file conn "prog") in
      let load _ =
        ignore (get (Vfs.Client.load_program conn h ~buf:8192 ~max:65536))
      in
      load 0;
      time_trials ~client:(Testbed.host tb client_host)
        ~server:(Testbed.host tb 1) ~trials:5 load)

let sequential_read ?(cpu_model = Vhw.Cost_model.sun_10mhz) ?(npages = 30)
    ?seed ~disk_latency_ns () =
  let server_config =
    { Vfs.Server.default_config with Vfs.Server.read_ahead = true }
  in
  let tb, fs, _srv =
    file_rig ?seed ~cpu_model ~server_config
      ~latency:(Vfs.Disk.Fixed disk_latency_ns)
      ~files:[ ("seq", npages * 512) ]
      ()
  in
  Vfs.Fs.evict_cache fs;
  let k = Testbed.kernel tb 2 in
  as_process tb ~host:2 (fun _ ->
      let conn = get (Vfs.Client.connect k ()) in
      let h = get (Vfs.Client.open_file conn "seq") in
      let t0 = Vsim.Engine.now (K.engine k) in
      let (_ : int) =
        get (Vfs.Client.read_sequential conn h ~buf:0 ~on_page:(fun _ _ -> ()))
      in
      (Vsim.Engine.now (K.engine k) - t0) / npages)

type cache_cols = {
  cold_ns : int;
  warm_ns : int;
  cache_stats : Vfs.Cache.stats option;
}

let make_cache tb ~host ~cache_blocks ~policy =
  if cache_blocks > 0 then
    Some
      (Vfs.Cache.create tb.Testbed.eng ~host
         { Vfs.Cache.capacity_blocks = cache_blocks; policy })
  else None

let cached_read ?(cpu_model = Vhw.Cost_model.sun_10mhz)
    ?(medium_config = Vnet.Medium.config_3mb) ?(file_blocks = 64)
    ?(working_set = 16) ?seed ~cache_blocks ~policy () =
  let bs = Vfs.Fs.block_size in
  let tb, _fs, _srv =
    file_rig ?seed ~cpu_model ~medium_config ~latency:(Vfs.Disk.Fixed 0)
      ~files:[ ("data", file_blocks * bs) ]
      ()
  in
  let k = Testbed.kernel tb 2 in
  as_process tb ~host:2 (fun _ ->
      let conn = get (Vfs.Client.connect k ()) in
      let cache = make_cache tb ~host:2 ~cache_blocks ~policy in
      let io = Vfs.Client.Io.make ?cache conn in
      let f = get (Vfs.Client.Io.open_file io "data") in
      let pass () =
        for b = 0 to working_set - 1 do
          ignore (get (Vfs.Client.Io.read f ~off:(b * bs) ~len:bs))
        done
      in
      let eng = K.engine k in
      let t0 = Vsim.Engine.now eng in
      pass ();
      let t1 = Vsim.Engine.now eng in
      let warm_passes = 3 in
      for _ = 1 to warm_passes do
        pass ()
      done;
      let t2 = Vsim.Engine.now eng in
      let warm_reads = warm_passes * working_set in
      {
        cold_ns = (t1 - t0) / working_set;
        warm_ns = (t2 - t1) / warm_reads;
        cache_stats = Option.map Vfs.Cache.stats cache;
      })

let cached_write ?(cpu_model = Vhw.Cost_model.sun_10mhz)
    ?(medium_config = Vnet.Medium.config_3mb) ?(blocks = 16) ?seed
    ~cache_blocks ~policy () =
  let bs = Vfs.Fs.block_size in
  let tb, _fs, _srv =
    file_rig ?seed ~cpu_model ~medium_config ~latency:(Vfs.Disk.Fixed 0)
      ~files:[ ("out", blocks * bs) ]
      ()
  in
  let k = Testbed.kernel tb 2 in
  as_process tb ~host:2 (fun _ ->
      let conn = get (Vfs.Client.connect k ()) in
      let cache = make_cache tb ~host:2 ~cache_blocks ~policy in
      let io = Vfs.Client.Io.make ?cache conn in
      let f = get (Vfs.Client.Io.open_file io "out") in
      let data = Bytes.make bs 'w' in
      let eng = K.engine k in
      let t0 = Vsim.Engine.now eng in
      for b = 0 to blocks - 1 do
        ignore (get (Vfs.Client.Io.write f ~off:(b * bs) data))
      done;
      let t1 = Vsim.Engine.now eng in
      get (Vfs.Client.Io.flush f);
      let t2 = Vsim.Engine.now eng in
      get (Vfs.Client.Io.close f);
      ((t1 - t0) / blocks, t2 - t1, Option.map Vfs.Cache.stats cache))

let capacity ?(cpu_model = Vhw.Cost_model.sun_10mhz)
    ?(duration = Vsim.Time.sec 4) ?(think_mean = Vsim.Time.ms 320)
    ?(servers = 1) ?(workers = 1) ?seed ~clients () =
  let server_config =
    {
      Vfs.Server.default_config with
      Vfs.Server.fs_process_ns = Vsim.Time.us 3500;
      transfer_unit = 16384;
      max_open = 2 * (clients + 2);
      workers;
    }
  in
  let tb = Testbed.create ?seed ~cpu_model ~hosts:(clients + servers) () in
  let server_pids =
    Array.init servers (fun i ->
        let fs =
          Testbed.make_test_fs tb
            ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 4))
            ~files:[ ("data", 64 * 512); ("prog", 65536) ]
            ()
        in
        let srv =
          Vfs.Server.start (Testbed.kernel tb (i + 1)) fs ~config:server_config ()
        in
        Vfs.Server.pid srv)
  in
  let eng = tb.Testbed.eng in
  let rec_ = Recorder.create eng ~warmup:(Vsim.Time.ms 300) () in
  (* Aggregate CPU utilization across *all* server hosts (1..servers),
     not just the first one. *)
  let cpu_marks =
    Array.init servers (fun i -> Vhw.Cpu.mark (Testbed.cpu tb (i + 1)))
  in
  let net_mark = Vnet.Medium.mark tb.Testbed.medium in
  for c = 1 to clients do
    let k = Testbed.kernel tb (c + servers) in
    let my_server = server_pids.(c mod servers) in
    ignore
      (K.spawn k ~name:"ws" (fun _ ->
           let rng = Vsim.Rng.split (Vsim.Engine.rng eng) in
           let conn = get (Vfs.Client.connect_to k my_server) in
           let dh = get (Vfs.Client.open_file conn "data") in
           let ph = get (Vfs.Client.open_file conn "prog") in
           let rec loop () =
             if Vsim.Engine.now eng < duration then begin
               Vsim.Proc.sleep
                 (Think.sample (Think.Exponential think_mean) rng);
               Recorder.measure rec_ (fun () ->
                   if Vsim.Rng.int rng 10 < 9 then
                     ignore
                       (Vfs.Client.read_page conn dh
                          ~block:(Vsim.Rng.int rng 64) ~buf:0 ())
                   else
                     ignore
                       (Vfs.Client.load_program conn ph ~buf:4096 ~max:65536));
               loop ()
             end
           in
           loop ()))
  done;
  Testbed.run tb;
  let server_util =
    let sum = ref 0.0 in
    Array.iteri
      (fun i mark ->
        sum := !sum +. Vhw.Cpu.utilization_since (Testbed.cpu tb (i + 1)) mark)
      cpu_marks;
    !sum /. float_of_int servers
  in
  ( Recorder.throughput_per_sec rec_,
    Recorder.mean_ms rec_,
    server_util,
    Vnet.Medium.utilization_since tb.Testbed.medium net_mark )

type contention_cols = {
  c_throughput : float;
  c_mean_ms : float;
  c_p95_ms : float;
  c_disk_waits : int;
  c_max_disk_queue : int;
  c_dispatches : int;
}

(* Closed-loop random page reads with the server's data cache disabled,
   so every request pays fs CPU *and* one disk access — the two-stage
   pipeline a worker team overlaps.  Each client issues a fixed request
   count, which keeps runs deterministic and comparable across worker
   counts. *)
let contention ?(cpu_model = Vhw.Cost_model.sun_10mhz) ?(workers = 1)
    ?(reads_per_client = 40) ?(think_mean = Vsim.Time.ms 10) ?seed ~clients
    () =
  let server_config =
    {
      Vfs.Server.default_config with
      Vfs.Server.fs_process_ns = Vsim.Time.us 3500;
      max_open = 2 * (clients + 2);
      workers;
    }
  in
  let tb = Testbed.create ?seed ~cpu_model ~hosts:(clients + 1) () in
  let fs =
    Testbed.make_test_fs tb
      ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 8))
      ~files:[ ("data", 64 * 512) ]
      ()
  in
  Vfs.Fs.set_cache_enabled fs false;
  let srv = Vfs.Server.start (Testbed.kernel tb 1) fs ~config:server_config () in
  let spid = Vfs.Server.pid srv in
  let eng = tb.Testbed.eng in
  let rec_ = Recorder.create eng () in
  for c = 1 to clients do
    let k = Testbed.kernel tb (c + 1) in
    ignore
      (K.spawn k ~name:"ws" (fun _ ->
           let rng = Vsim.Rng.split (Vsim.Engine.rng eng) in
           let conn = get (Vfs.Client.connect_to k spid) in
           let dh = get (Vfs.Client.open_file conn "data") in
           for _ = 1 to reads_per_client do
             Vsim.Proc.sleep
               (Think.sample (Think.Exponential think_mean) rng);
             Recorder.measure rec_ (fun () ->
                 ignore
                   (Vfs.Client.read_page conn dh
                      ~block:(Vsim.Rng.int rng 64) ~buf:0 ()))
           done))
  done;
  Testbed.run tb;
  let dsk = Vfs.Fs.disk fs in
  {
    c_throughput = Recorder.throughput_per_sec rec_;
    c_mean_ms = Recorder.mean_ms rec_;
    c_p95_ms = Recorder.p95_ms rec_;
    c_disk_waits = Vfs.Disk.queue_waits dsk;
    c_max_disk_queue = Vfs.Disk.max_queue_depth dsk;
    c_dispatches = Vfs.Server.dispatches srv;
  }

(* --- cross-segment SRR ------------------------------------------------

   The paper's installation spanned a 3 Mb and a 10 Mb Ethernet joined
   by a gateway; every V measurement in the tables is same-segment.
   This rig measures what the tables omit: the store-and-forward penalty
   a message exchange pays when client and server sit on different
   segments.  Host 1 (client) and host 2 (near echo) share the 3 Mb
   segment; host 3 (far echo) sits alone on the 10 Mb segment behind
   the gateway. *)

let srr_gateway ?(trials = 50) ~cpu_model ?seed () =
  let tp =
    Topology.create ?seed ~cpu_model
      ~segments:
        [
          { Topology.medium_config = Vnet.Medium.config_3mb; seg_hosts = 2 };
          { Topology.medium_config = Vnet.Medium.config_10mb; seg_hosts = 1 };
        ]
      ()
  in
  let near = start_echo (Topology.kernel tp 2) in
  let far = start_echo (Topology.kernel tp 3) in
  let k1 = Topology.kernel tp 1 in
  let measure server ~server_host =
    let msg = Msg.create () in
    (* Warm: first exchange pays one-time path setup. *)
    ignore (K.send k1 msg server);
    time_trials ~client:(Topology.host tp 1)
      ~server:(Topology.host tp server_host) ~trials (fun _ ->
        ignore (K.send k1 msg server))
  in
  let out = ref None in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"rig" (fun _ ->
        let near = measure near ~server_host:2 in
        out := Some (near, measure far ~server_host:3))
  in
  Topology.run tp;
  Option.get !out

(* --- sweep drivers ----------------------------------------------------

   The closed-loop rigs above are the expensive cells of the paper's
   Section 7 grids.  These drivers describe each cell as a pure
   Vsim.Job (every job builds its own testbed) and hand the batch to
   Vsim.Pool, so grids parallelize across domains while results stay in
   grid order and each cell stays byte-deterministic. *)

(* One job per grid point, labelled [label point], returning the point
   with its cell. *)
let sweep ~domains ~label cell points =
  Vsim.Pool.run_list ~domains
    (List.map
       (fun p -> Vsim.Job.v ~label:(lazy (label p)) (fun () -> (p, cell p)))
       points)

let capacity_sweep ?cpu_model ?duration ?think_mean ?servers ?workers ?seed
    ?(domains = Vsim.Pool.default_domains) ~clients () =
  sweep ~domains ~label:(Printf.sprintf "capacity:%d")
    (fun n ->
      capacity ?cpu_model ?duration ?think_mean ?servers ?workers ?seed
        ~clients:n ())
    clients

let contention_sweep ?cpu_model ?reads_per_client ?think_mean ?seed
    ?(domains = Vsim.Pool.default_domains) ~grid () =
  sweep ~domains
    ~label:(fun (w, c) -> Printf.sprintf "contention:w%d/c%d" w c)
    (fun (workers, clients) ->
      contention ?cpu_model ~workers ?reads_per_client ?think_mean ?seed
        ~clients ())
    grid
