(* What one rep of a workload measures, and the helpers the workloads
   share to measure it: a per-op log of simulated latencies and
   outcomes, readers of each layer's [stats] accessors, and the
   protocol-table drain check. *)

module K = Vkernel.Kernel

type sample = {
  setup_s : float;  (** host time before the first op *)
  run_s : float;  (** host time of the op phase *)
  host_scale : float;
      (** what the runner multiplies [setup_s] and [run_s] by to express
          them at the yardstick's quiet pace (see {!Yardstick}) *)
  minor_words : float;  (** words allocated on the minor heap in the op phase *)
  attempted : int;
  failed : int;
  problems : string list;  (** wrong data or broken invariants *)
  sim : (string * float) list;  (** end-to-end [sim_*] metrics *)
  layer : (string * float) list;  (** per-layer metrics read from [stats] *)
}

(* Host time is the process's CPU time (user + system, 1 us resolution):
   the simulator is single-threaded, and on a shared machine CPU time is
   far less disturbed by other tenants than wall-clock time is. *)
let now_s = Sys.time

(* The op phase: host time and minor-heap allocation around [f]. *)
let op_phase f =
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0, Gc.minor_words () -. w0)

(* A growable float buffer: Vsim.Stat.Series has no iteration, and the
   goodput count needs one. *)
module Lat = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s

  (* Nearest-rank percentile of a sorted array, and how many samples lie
     strictly beyond it. *)
  let percentile s p =
    let n = Array.length s in
    let rank = max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)) in
    (s.(rank), n - 1 - rank)
end

type outcome = Done | Failed | Wrong of string

(* One rep's op log.  Every op the benchmark issues goes through {!op}:
   the outcome is classified by the caller, failures never abort the run,
   and only successful ops started after [warmup] contribute latency
   samples, so a failed op counts as missing any latency limit. *)
type log = {
  warmup : Vsim.Time.t;
  trace : Optrace.t option;
  all : Lat.t;
  mutable kinds : (string * Lat.t) list;
  mutable first : Vsim.Time.t;
  mutable last : Vsim.Time.t;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
}

let log ?(warmup = 0) ?trace () =
  {
    warmup;
    trace;
    all = Lat.create ();
    kinds = [];
    first = max_int;
    last = 0;
    attempted = 0;
    failed = 0;
    problems = [];
  }

let problem log msg =
  (* Keep the report short: the first few problems say what broke. *)
  if List.length log.problems < 8 then log.problems <- msg :: log.problems

let kind log name =
  match List.assoc_opt name log.kinds with
  | Some l -> l
  | None ->
      let l = Lat.create () in
      log.kinds <- (name, l) :: log.kinds;
      l

let record log ~name ~t0 ~t1 =
  if t0 >= log.warmup then begin
    let ns = float_of_int (t1 - t0) in
    Lat.add log.all ns;
    Lat.add (kind log name) ns;
    if t0 < log.first then log.first <- t0;
    if t1 > log.last then log.last <- t1
  end

let note log outcome ~name ~t0 ~t1 =
  log.attempted <- log.attempted + 1;
  match outcome with
  | Done -> record log ~name ~t0 ~t1
  | Failed -> log.failed <- log.failed + 1
  | Wrong detail ->
      log.failed <- log.failed + 1;
      problem log (name ^ ": " ^ detail)

(* Run one op of client [pid] on [host] and classify its result.  Called
   from the client's process fiber. *)
let op log ~name ~host ~pid f check =
  let eng = Vsim.Proc.engine (Vsim.Proc.self ()) in
  let t0 = Vsim.Engine.now eng in
  let span =
    Option.map (fun tr -> (tr, Optrace.start tr ~name ~host ~pid ~now:t0)) log.trace
  in
  let r = f () in
  let t1 = Vsim.Engine.now eng in
  Option.iter (fun (tr, s) -> Optrace.finish tr s ~now:t1) span;
  note log (check r) ~name ~t0 ~t1;
  r

let ms ns = ns /. 1e6

(* The latency-derived [sim_*] metrics.  [sim_op_p99_ms] is reported only
   when at least ten samples lie beyond it. *)
let latency_metrics ?limit_ns ?span_ns log =
  let s = Lat.sorted log.all in
  let n = Array.length s in
  if n = 0 then []
  else
    let span_ns = Option.value span_ns ~default:(log.last - log.first) in
    let span_s = float_of_int span_ns /. 1e9 in
    let p50, _ = Lat.percentile s 50.0 in
    let p99, beyond = Lat.percentile s 99.0 in
    [ ("sim_op_p50_ms", ms p50); ("sim_op_samples", float_of_int n) ]
    @ (if beyond >= 10 then [ ("sim_op_p99_ms", ms p99) ] else [])
    @ (if span_s > 0.0 then [ ("sim_ops_per_s", float_of_int n /. span_s) ] else [])
    @
    match limit_ns with
    | Some limit when span_s > 0.0 ->
        let limit = float_of_int limit in
        let within = Array.fold_left (fun a x -> if x <= limit then a + 1 else a) 0 s in
        [ ("sim_goodput_per_s", float_of_int within /. span_s) ]
    | Some _ | None -> []

(* Median simulated latency of one op kind, in ms (0 if never seen). *)
let kind_p50_ms log name =
  match List.assoc_opt name log.kinds with
  | Some l when l.Lat.n > 0 -> ms (fst (Lat.percentile (Lat.sorted l) 50.0))
  | Some _ | None -> 0.0

(* --- layer readers ----------------------------------------------------- *)

let per_op ops x = if ops = 0 then 0.0 else float_of_int x /. float_of_int ops
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let cpu_ms_per_op ~ops cpus =
  per_op ops (List.fold_left (fun a c -> a + Vhw.Cpu.busy_ns c) 0 cpus) /. 1e6

let mean_util ~sim_ns cpus =
  match cpus with
  | [] -> 0.0
  | _ ->
      List.fold_left (fun a c -> a +. ratio (Vhw.Cpu.busy_ns c) sim_ns) 0.0 cpus
      /. float_of_int (List.length cpus)

let kernel_layer ~ops kernels =
  let sum f = List.fold_left (fun a k -> a + f (K.stats k)) 0 kernels in
  [
    ("vkernel.packets_per_op", per_op ops (sum (fun s -> s.K.packets_sent)));
    ("vkernel.retransmits_per_op", per_op ops (sum (fun s -> s.K.retransmissions)));
    ("vkernel.timeouts_per_op", per_op ops (sum (fun s -> s.K.timeouts_fired)));
    ("vkernel.reply_pendings_per_op", per_op ops (sum (fun s -> s.K.reply_pendings_sent)));
    ( "vkernel.duplicates_filtered_per_op",
      per_op ops (sum (fun s -> s.K.duplicates_filtered)) );
  ]

let net_layer ~ops ~sim_ns media =
  let stats = List.map Vnet.Medium.stats media in
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  [
    ("vnet.frames_per_op", per_op ops (sum (fun s -> s.Vnet.Medium.attempted)));
    ("vnet.collisions_per_op", per_op ops (sum (fun s -> s.Vnet.Medium.collisions)));
    ( "vnet.medium_util",
      List.fold_left (fun a s -> Float.max a (ratio s.Vnet.Medium.tx_busy_ns sim_ns)) 0.0 stats );
  ]

let wire_bytes media =
  List.fold_left (fun a m -> a + ((Vnet.Medium.stats m).Vnet.Medium.bits_sent / 8)) 0 media

let gateway_layer ~ops (g : Vnet.Gateway.stats) =
  [
    ("vnet.gateway_forwarded_per_op", per_op ops g.forwarded);
    ("vnet.gateway_rebroadcast_per_op", per_op ops g.rebroadcast);
    ("vnet.gateway_suppressed", float_of_int g.suppressed);
    ("vnet.gateway_queue_drops", float_of_int g.queue_drops);
  ]

(* Disk I/O counts since [base] (reads, writes): populating the file
   system at set-up writes at zero latency and is not the workload's. *)
let disk_io disk = (Vfs.Disk.reads disk, Vfs.Disk.writes disk)

let server_layer ~ops ~sim_ns ~base srv disk =
  let reads, writes = disk_io disk in
  let waits = Vfs.Disk.queue_waits disk in
  [
    ("vfs.server_requests_per_op", per_op ops (Vfs.Server.requests_served srv));
    ("vfs.server_dispatches_per_op", per_op ops (Vfs.Server.dispatches srv));
    ("vfs.disk_util", ratio (Vfs.Disk.busy_ns disk) sim_ns);
    ("vfs.disk_reads_per_op", per_op ops (reads - fst base));
    ("vfs.disk_writes_per_op", per_op ops (writes - snd base));
    ("vfs.disk_queue_waits_per_op", per_op ops waits);
    ("vfs.disk_queue_wait_ms_mean", ratio (Vfs.Disk.queue_wait_ns disk) waits /. 1e6);
  ]

(* After a workload quiesces every exchange must be answered and every
   transfer finished (replied aliens and completed MoveTo filters are
   caches, not leaks). *)
let drain_problems kernels =
  List.filter_map
    (fun k ->
      let c = K.table_counts k in
      if
        c.K.aliens_live + c.K.mt_ins_incomplete + c.K.mt_outs_pending
        + c.K.mf_outs_pending + c.K.getpid_pending + c.K.sends_blocked
        > 0
      then
        Some
          (Format.asprintf "host %d tables did not drain: %a" (K.host k)
             K.pp_table_counts c)
      else None)
    kernels

(* The op log's share of a sample. *)
let sample log ~setup_s ~run_s ~minor_words ~sim ~layer ~problems =
  {
    setup_s;
    run_s;
    host_scale = 1.0;
    minor_words;
    attempted = log.attempted;
    failed = log.failed;
    problems = List.rev log.problems @ problems;
    sim;
    layer;
  }
