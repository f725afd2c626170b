(* The cross-segment checker workload: a client on a 3 Mb segment, an
   echo service and a file server on a 10 Mb segment, every exchange
   crossing a store-and-forward gateway.  Scripted host events crash and
   restart the GATEWAY (not a kernel): a gateway outage silently eats
   every frame in transit between the segments, which is exactly the
   partition regime the kernel's retransmission machinery has to ride
   out.  Scripted network faults act on the client-side segment.

   The retry budget is deeper than the single-segment workloads' (the
   default gateway outage is 50 ms and the fixed T is 10 ms), so under
   any depth-2 schedule every operation must still succeed. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg
module Topology = Vworkload.Topology
module Io = Vfs.Client.Io

type op_result = Workload.op_result = { op : string; ok : bool; detail : string }

type report = {
  completed : bool;
  events : int;
  frames : int;  (** completed transmissions on segment 0 (the fault target) *)
  gw_crashes : int;
  gw_restarts : int;
  ops : op_result list;
  echoes_served : int;
  kernels : Workload.kernel_probe list;
  media : Vnet.Medium.stats list;
  gateway : Vnet.Gateway.stats;
}

(* Enough retries to ride out a full gateway outage: 12 x 10 ms of
   retransmission against a 50 ms default outage. *)
let inet_config =
  { Workload.fast_config with K.max_retries = 12 }

let echo_lid = 9
let file_name = "inet-data"
let bs = Vfs.Fs.block_size
let op_count = 7 (* getpid, echo, open, read, write, readback, close *)
let default_max_events = 4_000_000

let run ?(fault = Vnet.Fault.none) ?(max_events = default_max_events)
    ?seed () =
  let tp =
    Topology.create ?seed ~kernel_config:inet_config
      ~segments:
        [
          { Topology.medium_config = Vnet.Medium.config_3mb; seg_hosts = 1 };
          { Topology.medium_config = Vnet.Medium.config_10mb; seg_hosts = 1 };
        ]
      ()
  in
  let eng = tp.Topology.eng in
  let gw = tp.Topology.gateway in
  let kernel i = (Topology.host tp i).Vworkload.Testbed.kernel in
  let k1 = kernel 1 and k2 = kernel 2 in
  let m0 = Topology.medium tp 0 and m1 = Topology.medium tp 1 in
  (* The fault script and the crash schedule both act on segment 0. *)
  let gw_crashes = ref 0 and gw_restarts = ref 0 in
  Vnet.Medium.set_host_handler m0
    ~crash:(fun () ->
      incr gw_crashes;
      Vnet.Gateway.crash gw)
    ~restart:(fun () ->
      incr gw_restarts;
      Vnet.Gateway.restart gw);
  let fs =
    Topology.make_fs tp ~host:2 ~files:[ (file_name, 4 * bs) ] ()
  in
  let (_ : Vfs.Server.t) = Vfs.Server.start k2 fs () in
  let echoes = ref 0 in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"echo" (fun pid ->
        K.set_pid k2 ~logical_id:echo_lid pid K.Any;
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k2 msg in
          incr echoes;
          Msg.set_u8 msg 4 ((Msg.get_u8 msg 4 + 1) land 0xFF);
          ignore (K.reply k2 msg src);
          loop ()
        in
        loop ())
  in
  let ops = ref [] in
  let record op ok detail = ops := { op; ok; detail } :: !ops in
  let client_done = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"inet-client" (fun _ ->
        (* IPC across the gateway: resolve and call the echo service. *)
        (match K.get_pid k1 ~logical_id:echo_lid K.Any with
        | None -> record "getpid" false "no echo service"
        | Some pid -> (
            record "getpid" true "ok";
            let msg = Msg.create () in
            Msg.set_u8 msg 4 41;
            match K.send k1 msg pid with
            | K.Ok ->
                record "echo" (Msg.get_u8 msg 4 = 42) "cross-segment echo"
            | st -> record "echo" false (K.status_to_string st)));
        (* File access across the gateway. *)
        match Vfs.Client.connect k1 () with
        | Error e -> record "open" false (Vfs.Client.error_to_string e)
        | Ok conn -> (
            let io = Io.make conn in
            match Io.open_file io file_name with
            | Error e -> record "open" false (Vfs.Client.error_to_string e)
            | Ok f -> (
                record "open" true "ok";
                (match Io.read f ~off:0 ~len:bs with
                | Ok got ->
                    let expect =
                      Bytes.init bs (fun i -> Vworkload.Testbed.pattern_byte i)
                    in
                    record "read" (Bytes.equal got expect) "data check"
                | Error e ->
                    record "read" false (Vfs.Client.error_to_string e));
                let fresh =
                  Bytes.init bs (fun i ->
                      Vworkload.Testbed.pattern_byte (9000 + i))
                in
                (match Io.write f ~off:bs fresh with
                | Ok n when n = bs -> record "write" true "ok"
                | Ok n -> record "write" false (Printf.sprintf "short %d" n)
                | Error e ->
                    record "write" false (Vfs.Client.error_to_string e));
                (match Io.read f ~off:bs ~len:bs with
                | Ok got ->
                    record "readback" (Bytes.equal got fresh) "data check"
                | Error e ->
                    record "readback" false (Vfs.Client.error_to_string e));
                (match Io.close f with
                | Ok () -> record "close" true "ok"
                | Error e ->
                    record "close" false (Vfs.Client.error_to_string e));
                client_done := true)))
  in
  Vnet.Medium.set_fault m0 fault;
  let quiescent, events =
    match Vsim.Engine.run_bounded ~max_events eng with
    | `Quiescent n -> (true, n)
    | `Exhausted n -> (false, n)
  in
  let s0 = Vnet.Medium.stats m0 in
  {
    completed = quiescent && !client_done;
    events;
    frames = s0.Vnet.Medium.attempted - s0.Vnet.Medium.excessive;
    gw_crashes = !gw_crashes;
    gw_restarts = !gw_restarts;
    ops = List.rev !ops;
    echoes_served = !echoes;
    kernels =
      List.map
        (fun i ->
          let k = kernel i in
          {
            Workload.host = i;
            tables = K.table_counts k;
            kstats = K.stats k;
          })
        [ 1; 2 ];
    media = [ s0; Vnet.Medium.stats m1 ];
    gateway = Vnet.Gateway.stats gw;
  }
