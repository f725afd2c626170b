(** Typed trace events.

    Structured counterparts to the old string traces: each layer of the
    simulator reports its activity through one of these constructors, and
    sinks (JSONL writers, span correlators, metrics registries — see the
    [vobs] library) consume them without parsing.

    Events carry only simulation-deterministic data — integer pids, host
    addresses, byte counts, sequence numbers.  Two runs with the same seed
    emit identical streams. *)

type dir = To | From

type field = I of int | S of string

type t =
  | Send of { host : int; src : int; dst : int; seq : int; remote : bool }
      (** IPC [Send] initiated on [host] by pid [src] to pid [dst].
          [seq] is 0 for local sends (no packet, hence no sequence). *)
  | Send_done of { host : int; pid : int; seq : int; status : string }
      (** The blocked sender resumed; [status] is ["ok"] or a failure. *)
  | Receive of { host : int; pid : int; src : int; seq : int; bytes : int }
      (** Receiver [pid] picked up a message from [src]. *)
  | Reply of { host : int; src : int; dst : int; seq : int; remote : bool }
      (** [src] replied to [dst] (an alien when [remote]). *)
  | Forward of { host : int; by : int; src : int; dst : int }
  | Move of {
      host : int;
      dir : dir;
      src : int;
      dst : int;
      seq : int;
      bytes : int;
      remote : bool;
    }  (** MoveTo ([dir = To]) or MoveFrom ([dir = From]) data transfer. *)
  | Move_done of { host : int; seq : int; status : string }
  | Packet_tx of {
      host : int;
      op : string;
      src : int;
      dst : int;
      seq : int;
      bytes : int;
    }  (** Kernel handed a packet to the NIC; [bytes] is wire length. *)
  | Packet_rx of {
      host : int;
      op : string;
      src : int;
      dst : int;
      seq : int;
      bytes : int;
    }  (** Kernel accepted a packet from the NIC. *)
  | Packet_drop of { host : int; reason : string; bytes : int }
  | Retransmit of { host : int; kind : string; seq : int; attempt : int }
      (** [kind] is ["send"], ["move-to"], ["move-from"] or ["getpid"]. *)
  | Rtt_sample of {
      host : int;
      peer : int;
      sample_ns : int;
      srtt_ns : int;
      rttvar_ns : int;
      rto_ns : int;
    }
      (** Adaptive retransmission accepted a round-trip sample for
          destination host [peer]; [srtt_ns]/[rttvar_ns]/[rto_ns] are the
          estimator state after folding it in. *)
  | Backoff of {
      host : int;
      peer : int;
      kind : string;
      seq : int;
      attempt : int;
      rto_ns : int;
    }
      (** A retransmission timer of [kind] (as in [Retransmit]) expired
          after waiting [rto_ns] against destination host [peer]. *)
  | Host_suspected of { host : int; peer : int; fails : int }
      (** The failure detector on [host] marked destination [peer] suspect
          after [fails] consecutive retry exhaustions. *)
  | Collision of { a : int; b : int }
      (** CSMA/CD collision between stations [a] and [b] (no single host). *)
  | Nic_busy of { host : int; queued : int }
      (** Transmit requested while the tx buffer was busy. *)
  | Queue_depth of { host : int; pid : int; depth : int }
      (** Message-queue depth of [pid] after an enqueue. *)
  | Cpu_grant of { host : int; cpu : string; ns : int }
  | Disk_io of { host : int; rw : string; block : int; ns : int }
  | Disk_queue of { host : int; depth : int; wait_ns : int }
      (** A disk request arrived while the device was busy and joined the
          FCFS queue: [depth] requests are now waiting (including this
          one) and this request will wait [wait_ns] before service
          starts.  Never emitted when the device is idle, so traces of
          non-overlapping workloads are unchanged. *)
  | Fs_request of { host : int; op : string; block : int; count : int }
  | Server_dispatch of {
      host : int;
      worker : int;
      busy : int;
      queued : int;
    }
      (** The file-server dispatcher handed a client request to worker
          pid [worker]; [busy] workers are now busy and [queued] requests
          remain waiting for a free worker.  Only emitted by multi-worker
          servers ([config.workers > 1]). *)
  | Cache_op of { host : int; op : string; inum : int; block : int }
      (** Client-side block-cache activity on [host]; [op] is ["hit"],
          ["miss"], ["evict"], ["writeback"] or ["invalidate"]. *)
  | Span_open of { host : int; kind : string; pid : int; seq : int }
      (** Emitted by the span correlator (see [Vobs.Spans]). *)
  | Span_close of {
      host : int;
      kind : string;
      pid : int;
      seq : int;
      total_ns : int;
      segments : (string * int) list;
    }
      (** [segments] are contiguous (label, duration-ns) slices whose sum
          equals [total_ns]. *)

val name : t -> string
(** Stable snake_case constructor name, e.g. ["packet_tx"]. *)

val topic : t -> string
(** Coarse routing key: ["kernel"], ["net"], ["cpu"], ["disk"], ["fs"],
    ["cache"] or ["span"]. *)

val host : t -> int option
(** The host the event is attributed to; [None] for [Collision] (two
    stations). *)

val fields : t -> (string * field) list
(** Flat key/value view for serializers.  Order is fixed per constructor
    and is part of the deterministic-output contract. *)

val pp : Format.formatter -> t -> unit
(** One-line human-readable rendering ([name k=v ...]). *)
