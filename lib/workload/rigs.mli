(** Measurement rigs for the paper's experiments.

    Each rig builds a fresh testbed, runs one of the paper's measurement
    procedures (Sections 4-8) and returns per-operation numbers.  The
    benchmark harness and the [vsim] command-line tool are both thin
    wrappers over these.

    The per-operation rigs of Tables 5-1, 5-2, 6-1 and 6-3 share one
    procedure: a process issues one warm-up operation, then
    {!time_trials} runs the measured trials and reports elapsed time and
    client and server processor time per operation.  A rig's locality
    is one host-number argument: host 1 is the same machine. *)

type cols = {
  elapsed : int;  (** per-op elapsed simulated time, ns *)
  client_cpu : int;  (** per-op client processor time, ns *)
  server_cpu : int;  (** per-op server processor time, ns *)
}

val time_trials :
  client:Testbed.host ->
  server:Testbed.host ->
  trials:int ->
  (int -> unit) ->
  cols
(** [time_trials ~client ~server ~trials op] marks both processors and
    the clock, runs [op i] for [i = 1..trials] and returns the per-trial
    averages.  It must run inside a running process, after the caller's
    own warm-up.  When [client == server] both CPU columns are that
    host's time.  Raises [Invalid_argument] when [trials < 1]. *)

val start_echo : Vkernel.Kernel.t -> Vkernel.Pid.t
(** A forever-looping echo server process: it replies to each message
    with byte 4 incremented, and fails the simulation if a reply does not
    return [Ok]. *)

val as_process : Testbed.t -> host:int -> (Vkernel.Pid.t -> 'a) -> 'a
(** Run a function as a kernel process on [host], drive the engine to
    quiescence and return the function's result.  Fails if the process
    did not finish. *)

val srr :
  ?trials:int ->
  cpu_model:Vhw.Cost_model.t ->
  medium_config:Vnet.Medium.config ->
  ?fault:Vnet.Fault.t ->
  ?kernel_config:Vkernel.Kernel.config ->
  ?seed:int64 ->
  server_host:int ->
  unit ->
  cols
(** Send-Receive-Reply (Tables 5-1/5-2) from a client on host 1 to an
    echo server on [server_host] of a [server_host]-host testbed: [1]
    is the local exchange, [2] the remote one between two
    workstations.  [fault] applies to the medium. *)

val gettime : cpu_model:Vhw.Cost_model.t -> ?seed:int64 -> unit -> int
(** Per-op elapsed time of the trivial kernel operation. *)

val move :
  ?trials:int ->
  cpu_model:Vhw.Cost_model.t ->
  medium_config:Vnet.Medium.config ->
  count:int ->
  to_remote:bool ->
  ?seed:int64 ->
  sender_host:int ->
  unit ->
  cols
(** MoveTo ([to_remote = true]) or MoveFrom of [count] bytes by a
    process on host 1 into or out of the segment that a process on
    [sender_host] granted it with a Send ([1] = same machine, [2] =
    remote; the testbed has [sender_host] hosts).  Client CPU is the
    mover's host 1, server CPU the sender's host.  Fails if a move does
    not return [Ok]. *)

val penalty_ns :
  cpu_model:Vhw.Cost_model.t -> medium_config:Vnet.Medium.config -> int -> int
(** Analytic network penalty P(n); validated against {!measure_penalty}. *)

val measure_penalty :
  ?trials:int ->
  ?seed:int64 ->
  cpu_model:Vhw.Cost_model.t ->
  medium_config:Vnet.Medium.config ->
  int ->
  int
(** Measured one-way memory-to-memory datagram time (Section 4). *)

val file_rig :
  ?hosts:int ->
  ?cpu_model:Vhw.Cost_model.t ->
  ?medium_config:Vnet.Medium.config ->
  ?server_config:Vfs.Server.config ->
  ?latency:Vfs.Disk.latency ->
  ?seed:int64 ->
  files:(string * int) list ->
  unit ->
  Testbed.t * Vfs.Fs.t * Vfs.Server.t
(** A file server on host 1 with the given pattern-filled files. *)

val get : ('a, Vfs.Client.error) result -> 'a
(** Unwrap a client-stub result, failing the simulation on error. *)

val page_op :
  ?trials:int ->
  ?cpu_model:Vhw.Cost_model.t ->
  ?medium_config:Vnet.Medium.config ->
  ?workers:int ->
  ?seed:int64 ->
  client_host:int ->
  write:bool ->
  basic:bool ->
  unit ->
  cols
(** 512-byte page read/write against a file server on host 1, from
    [client_host] (1 = same machine).  [basic] selects the Thoth-style
    MoveTo/MoveFrom variant (Table 6-1, Section 6.1).  [workers] sizes
    the server's process team (a single client cannot benefit, but the
    dispatch overhead becomes visible). *)

val program_load :
  ?cpu_model:Vhw.Cost_model.t ->
  ?medium_config:Vnet.Medium.config ->
  ?seed:int64 ->
  transfer_unit:int ->
  client_host:int ->
  unit ->
  cols
(** 64-kilobyte program load (Table 6-3) from [client_host] against a
    file server on host 1 that pushes the image in [transfer_unit]-byte
    MoveTos: one warm-up load, then five timed ones. *)

val sequential_read :
  ?cpu_model:Vhw.Cost_model.t ->
  ?npages:int ->
  ?seed:int64 ->
  disk_latency_ns:int ->
  unit ->
  int
(** Per-page elapsed time of a sequential file read against a read-ahead
    server paying the given disk latency (Table 6-2). *)

type cache_cols = {
  cold_ns : int;  (** per-read ns over the first (cold-cache) pass *)
  warm_ns : int;  (** per-read ns averaged over the re-read passes *)
  cache_stats : Vfs.Cache.stats option;  (** [None] when uncached *)
}

val cached_read :
  ?cpu_model:Vhw.Cost_model.t ->
  ?medium_config:Vnet.Medium.config ->
  ?file_blocks:int ->
  ?working_set:int ->
  ?seed:int64 ->
  cache_blocks:int ->
  policy:Vfs.Cache.policy ->
  unit ->
  cache_cols
(** Cyclic re-read of a [working_set]-block span through the {!Vfs.Client.Io}
    API with a [cache_blocks]-block client cache ([0] disables caching).
    One cold pass then 3 warm passes; with
    [working_set <= cache_blocks] every warm read is a hit, with
    [working_set > cache_blocks] LRU evicts each block just before its
    cyclic reuse and every read misses — the cache-capacity crossover. *)

val cached_write :
  ?cpu_model:Vhw.Cost_model.t ->
  ?medium_config:Vnet.Medium.config ->
  ?blocks:int ->
  ?seed:int64 ->
  cache_blocks:int ->
  policy:Vfs.Cache.policy ->
  unit ->
  int * int * Vfs.Cache.stats option
(** [(per_write_ns, flush_ns, stats)]: write [blocks] full blocks through
    the cache, then flush.  Write-through pays the server on every write
    and flushes for free; write-back writes at memory speed and pays at
    flush. *)

val capacity :
  ?cpu_model:Vhw.Cost_model.t ->
  ?duration:Vsim.Time.t ->
  ?think_mean:Vsim.Time.t ->
  ?servers:int ->
  ?workers:int ->
  ?seed:int64 ->
  clients:int ->
  unit ->
  float * float * float * float
(** [(throughput_per_s, mean_ms, server_cpu_util, net_util)] for the
    Section 7 multi-client mix (90% page reads, 10% 64 KB loads).
    [servers] > 1 spreads the clients across several file-server
    machines — the paper's "add more file server machines" scaling
    argument — and [server_cpu_util] is the mean utilization across all
    of them.  [workers] sizes each server's process team. *)

type contention_cols = {
  c_throughput : float;  (** completed reads per simulated second *)
  c_mean_ms : float;
  c_p95_ms : float;
  c_disk_waits : int;  (** disk requests that queued behind another *)
  c_max_disk_queue : int;
  c_dispatches : int;  (** worker dispatches (0 for a 1-worker server) *)
}

val contention :
  ?cpu_model:Vhw.Cost_model.t ->
  ?workers:int ->
  ?reads_per_client:int ->
  ?think_mean:Vsim.Time.t ->
  ?seed:int64 ->
  clients:int ->
  unit ->
  contention_cols
(** Closed-loop random page reads from [clients] workstations against
    one file server with a [workers]-process team and its data cache
    disabled, so every request pays ~3.5 ms of fs CPU plus an 8 ms disk
    access.  A team overlaps one request's disk wait with another's
    processing; a single worker serializes them.  Deterministic: each
    client issues exactly [reads_per_client] requests. *)

val srr_gateway :
  ?trials:int ->
  cpu_model:Vhw.Cost_model.t ->
  ?seed:int64 ->
  unit ->
  cols * cols
(** [(same_segment, cross_segment)] Send-Receive-Reply columns over a
    two-segment internetwork: the client and the near echo server share
    the 3 Mb segment; the far echo server sits on the 10 Mb segment
    behind the store-and-forward gateway.  The difference is the
    gateway hop penalty (forwarding CPU + queueing + second wire),
    paid twice per exchange — a number the paper's same-segment tables
    omit.  Deterministic. *)

val capacity_sweep :
  ?cpu_model:Vhw.Cost_model.t ->
  ?duration:Vsim.Time.t ->
  ?think_mean:Vsim.Time.t ->
  ?servers:int ->
  ?workers:int ->
  ?seed:int64 ->
  ?domains:int ->
  clients:int list ->
  unit ->
  (int * (float * float * float * float)) list
(** One {!capacity} cell per entry of [clients], described as
    {!Vsim.Job}s and executed through {!Vsim.Pool} with [domains]
    workers.  Results come back in [clients] order and each cell is
    byte-identical for any domain count (each job builds its own
    testbed). *)

val contention_sweep :
  ?cpu_model:Vhw.Cost_model.t ->
  ?reads_per_client:int ->
  ?think_mean:Vsim.Time.t ->
  ?seed:int64 ->
  ?domains:int ->
  grid:(int * int) list ->
  unit ->
  ((int * int) * contention_cols) list
(** One {!contention} cell per [(workers, clients)] pair of [grid], via
    {!Vsim.Pool}; same ordering and determinism contract as
    {!capacity_sweep}. *)
