(* Typed trace events. Every layer of the simulator (kernel IPC, NIC,
   medium, CPU scheduler, disk, file server) reports what it does through
   these constructors rather than ad-hoc strings, so sinks can correlate,
   aggregate and export without parsing.

   Events deliberately carry only simulation-deterministic data: integer
   pids, host addresses, byte counts, sequence numbers and engine
   timestamps.  Nothing host-process-dependent (fiber ids, wall-clock,
   hash order) may appear here — two runs with the same seed must emit
   byte-identical streams. *)

type dir = To | From

type field = I of int | S of string

type t =
  | Send of { host : int; src : int; dst : int; seq : int; remote : bool }
  | Send_done of { host : int; pid : int; seq : int; status : string }
  | Receive of { host : int; pid : int; src : int; seq : int; bytes : int }
  | Reply of { host : int; src : int; dst : int; seq : int; remote : bool }
  | Forward of { host : int; by : int; src : int; dst : int }
  | Move of {
      host : int;
      dir : dir;
      src : int;
      dst : int;
      seq : int;
      bytes : int;
      remote : bool;
    }
  | Move_done of { host : int; seq : int; status : string }
  | Packet_tx of {
      host : int;
      op : string;
      src : int;
      dst : int;
      seq : int;
      bytes : int;
    }
  | Packet_rx of {
      host : int;
      op : string;
      src : int;
      dst : int;
      seq : int;
      bytes : int;
    }
  | Packet_drop of { host : int; reason : string; bytes : int }
  | Retransmit of { host : int; kind : string; seq : int; attempt : int }
  | Rtt_sample of {
      host : int;
      peer : int;
      sample_ns : int;
      srtt_ns : int;
      rttvar_ns : int;
      rto_ns : int;
    }
  | Backoff of {
      host : int;
      peer : int;
      kind : string;
      seq : int;
      attempt : int;
      rto_ns : int;
    }
  | Host_suspected of { host : int; peer : int; fails : int }
  | Collision of { a : int; b : int }
  | Nic_busy of { host : int; queued : int }
  | Queue_depth of { host : int; pid : int; depth : int }
  | Cpu_grant of { host : int; cpu : string; ns : int }
  | Disk_io of { host : int; rw : string; block : int; ns : int }
  | Disk_queue of { host : int; depth : int; wait_ns : int }
  | Fs_request of { host : int; op : string; block : int; count : int }
  | Server_dispatch of {
      host : int;
      worker : int;
      busy : int;
      queued : int;
    }
  | Cache_op of { host : int; op : string; inum : int; block : int }
  | Span_open of { host : int; kind : string; pid : int; seq : int }
  | Span_close of {
      host : int;
      kind : string;
      pid : int;
      seq : int;
      total_ns : int;
      segments : (string * int) list;
    }

let name = function
  | Send _ -> "send"
  | Send_done _ -> "send_done"
  | Receive _ -> "receive"
  | Reply _ -> "reply"
  | Forward _ -> "forward"
  | Move { dir = To; _ } -> "move_to"
  | Move { dir = From; _ } -> "move_from"
  | Move_done _ -> "move_done"
  | Packet_tx _ -> "packet_tx"
  | Packet_rx _ -> "packet_rx"
  | Packet_drop _ -> "packet_drop"
  | Retransmit _ -> "retransmit"
  | Rtt_sample _ -> "rtt_sample"
  | Backoff _ -> "backoff"
  | Host_suspected _ -> "host_suspected"
  | Collision _ -> "collision"
  | Nic_busy _ -> "nic_busy"
  | Queue_depth _ -> "queue_depth"
  | Cpu_grant _ -> "cpu_grant"
  | Disk_io _ -> "disk_io"
  | Disk_queue _ -> "disk_queue"
  | Fs_request _ -> "fs_request"
  | Server_dispatch _ -> "server_dispatch"
  | Cache_op _ -> "cache_op"
  | Span_open _ -> "span_open"
  | Span_close _ -> "span_close"

let topic = function
  | Send _ | Send_done _ | Receive _ | Reply _ | Forward _ | Move _
  | Move_done _ | Queue_depth _ ->
      "kernel"
  | Packet_tx _ | Packet_rx _ | Packet_drop _ | Retransmit _ | Rtt_sample _
  | Backoff _ | Host_suspected _ | Collision _ | Nic_busy _ ->
      "net"
  | Cpu_grant _ -> "cpu"
  | Disk_io _ | Disk_queue _ -> "disk"
  | Fs_request _ | Server_dispatch _ -> "fs"
  | Cache_op _ -> "cache"
  | Span_open _ | Span_close _ -> "span"

let host = function
  | Send { host; _ }
  | Send_done { host; _ }
  | Receive { host; _ }
  | Reply { host; _ }
  | Forward { host; _ }
  | Move { host; _ }
  | Move_done { host; _ }
  | Packet_tx { host; _ }
  | Packet_rx { host; _ }
  | Packet_drop { host; _ }
  | Retransmit { host; _ }
  | Rtt_sample { host; _ }
  | Backoff { host; _ }
  | Host_suspected { host; _ }
  | Nic_busy { host; _ }
  | Queue_depth { host; _ }
  | Cpu_grant { host; _ }
  | Disk_io { host; _ }
  | Disk_queue { host; _ }
  | Fs_request { host; _ }
  | Server_dispatch { host; _ }
  | Cache_op { host; _ }
  | Span_open { host; _ }
  | Span_close { host; _ } ->
      Some host
  | Collision _ -> None

(* Flat key/value view for serializers.  Order is fixed per constructor —
   it is part of the deterministic-output contract. *)
let fields = function
  | Send { host = _; src; dst; seq; remote } ->
      [ ("src", I src); ("dst", I dst); ("seq", I seq);
        ("remote", S (string_of_bool remote)) ]
  | Send_done { host = _; pid; seq; status } ->
      [ ("pid", I pid); ("seq", I seq); ("status", S status) ]
  | Receive { host = _; pid; src; seq; bytes } ->
      [ ("pid", I pid); ("src", I src); ("seq", I seq); ("bytes", I bytes) ]
  | Reply { host = _; src; dst; seq; remote } ->
      [ ("src", I src); ("dst", I dst); ("seq", I seq);
        ("remote", S (string_of_bool remote)) ]
  | Forward { host = _; by; src; dst } ->
      [ ("by", I by); ("src", I src); ("dst", I dst) ]
  | Move { host = _; dir = _; src; dst; seq; bytes; remote } ->
      [ ("src", I src); ("dst", I dst); ("seq", I seq); ("bytes", I bytes);
        ("remote", S (string_of_bool remote)) ]
  | Move_done { host = _; seq; status } ->
      [ ("seq", I seq); ("status", S status) ]
  | Packet_tx { host = _; op; src; dst; seq; bytes }
  | Packet_rx { host = _; op; src; dst; seq; bytes } ->
      [ ("op", S op); ("src", I src); ("dst", I dst); ("seq", I seq);
        ("bytes", I bytes) ]
  | Packet_drop { host = _; reason; bytes } ->
      [ ("reason", S reason); ("bytes", I bytes) ]
  | Retransmit { host = _; kind; seq; attempt } ->
      [ ("kind", S kind); ("seq", I seq); ("attempt", I attempt) ]
  | Rtt_sample { host = _; peer; sample_ns; srtt_ns; rttvar_ns; rto_ns } ->
      [ ("peer", I peer); ("sample_ns", I sample_ns);
        ("srtt_ns", I srtt_ns); ("rttvar_ns", I rttvar_ns);
        ("rto_ns", I rto_ns) ]
  | Backoff { host = _; peer; kind; seq; attempt; rto_ns } ->
      [ ("peer", I peer); ("kind", S kind); ("seq", I seq);
        ("attempt", I attempt); ("rto_ns", I rto_ns) ]
  | Host_suspected { host = _; peer; fails } ->
      [ ("peer", I peer); ("fails", I fails) ]
  | Collision { a; b } -> [ ("a", I a); ("b", I b) ]
  | Nic_busy { host = _; queued } -> [ ("queued", I queued) ]
  | Queue_depth { host = _; pid; depth } ->
      [ ("pid", I pid); ("depth", I depth) ]
  | Cpu_grant { host = _; cpu; ns } -> [ ("cpu", S cpu); ("ns", I ns) ]
  | Disk_io { host = _; rw; block; ns } ->
      [ ("rw", S rw); ("block", I block); ("ns", I ns) ]
  | Disk_queue { host = _; depth; wait_ns } ->
      [ ("depth", I depth); ("wait_ns", I wait_ns) ]
  | Fs_request { host = _; op; block; count } ->
      [ ("op", S op); ("block", I block); ("count", I count) ]
  | Server_dispatch { host = _; worker; busy; queued } ->
      [ ("worker", I worker); ("busy", I busy); ("queued", I queued) ]
  | Cache_op { host = _; op; inum; block } ->
      [ ("op", S op); ("inum", I inum); ("block", I block) ]
  | Span_open { host = _; kind; pid; seq } ->
      [ ("kind", S kind); ("pid", I pid); ("seq", I seq) ]
  | Span_close { host = _; kind; pid; seq; total_ns; segments } ->
      [ ("kind", S kind); ("pid", I pid); ("seq", I seq);
        ("total_ns", I total_ns) ]
      @ List.map (fun (l, d) -> ("seg:" ^ l, I d)) segments

let pp fmt ev =
  Format.fprintf fmt "%s" (name ev);
  (match host ev with Some h -> Format.fprintf fmt " host=%d" h | None -> ());
  List.iter
    (fun (k, v) ->
      match v with
      | I i -> Format.fprintf fmt " %s=%d" k i
      | S s -> Format.fprintf fmt " %s=%s" k s)
    (fields ev)
