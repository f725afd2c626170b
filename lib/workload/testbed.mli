(** Canned experiment topologies.

    Every experiment in the paper is "some SUN workstations on one
    Ethernet, one of them possibly a file server".  This module builds
    that: an engine, a medium, and [n] hosts (station addresses 1..n),
    each with a CPU, NIC and V kernel. *)

type host = {
  addr : Vnet.Addr.t;
  cpu : Vhw.Cpu.t;
  nic : Vnet.Nic.t;
  kernel : Vkernel.Kernel.t;
}

type t = {
  eng : Vsim.Engine.t;
  medium : Vnet.Medium.t;
  hosts : host array;
}

val create :
  ?seed:int64 ->
  ?medium_config:Vnet.Medium.config ->
  ?cpu_model:Vhw.Cost_model.t ->
  ?kernel_config:Vkernel.Kernel.config ->
  hosts:int ->
  unit ->
  t
(** Defaults: 3 Mb Ethernet, the 10 MHz SUN, default kernel config. *)

val host : t -> int -> host
(** 1-based, by station address. *)

val kernel : t -> int -> Vkernel.Kernel.t
val cpu : t -> int -> Vhw.Cpu.t
val nic : t -> int -> Vnet.Nic.t
(** One field of {!host}. *)

val run_proc : t -> ?name:string -> (unit -> unit) -> unit
(** Spawn a bare fiber (no kernel process) and run the engine until all
    activity quiesces.  Used for setup and audit phases: installing
    files, reading back what a run left on disk. *)

val run : ?until:Vsim.Time.t -> t -> unit
(** Run the engine (see {!Vsim.Engine.run}). *)

val pattern_byte : int -> char
(** Deterministic test-data generator: byte at offset [i]. *)

val make_test_fs :
  t ->
  ?host:int ->
  ?latency:Vfs.Disk.latency ->
  ?blocks:int ->
  ?journal_blocks:int ->
  files:(string * int) list ->
  unit ->
  Vfs.Fs.t
(** A formatted filesystem pre-populated with the named files (sizes in
    bytes, contents from {!pattern_byte}), on a new disk with the
    requested latency; see {!Mkfs.make}.  The formatting is not
    simulated: the disk is seeded from an image of the shape built once
    per domain, so it costs the engine no events or trace records.
    Afterwards the engine is run until quiescent, like {!run_proc}.
    [host] (default 1) attributes the disk's [Disk_io] trace events to
    the server's station address.  [journal_blocks] (default 0,
    unjournaled) reserves a write-ahead journal so crash tests get
    atomic, replayable mutations — see {!Vfs.Fs.format}. *)
