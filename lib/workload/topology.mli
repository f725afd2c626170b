(** Multi-segment internetwork topologies.

    The paper's V installation spanned a 3 Mb and a 10 Mb Ethernet
    joined by gateways.  This module builds that: several {!Vnet.Medium}
    segments, each with its own bandwidth and latency, bridged by one
    store-and-forward {!Vnet.Gateway}, with hosts numbered globally
    (station addresses [1..n], assigned segment by segment in order).

    See doc/INTERNETWORK.md for the topology syntax and gateway
    semantics. *)

type segment_spec = {
  medium_config : Vnet.Medium.config;
  seg_hosts : int;  (** hosts placed on this segment *)
}

type t = {
  eng : Vsim.Engine.t;
  media : Vnet.Medium.t array;
  gateway : Vnet.Gateway.t;
  hosts : Testbed.host array;
}

val gateway_addr : Vnet.Addr.t
(** The gateway's own station address (254), outside the host range. *)

val create :
  ?seed:int64 ->
  ?cpu_model:Vhw.Cost_model.t ->
  ?kernel_config:Vkernel.Kernel.config ->
  ?gateway_config:Vnet.Gateway.config ->
  segments:segment_spec list ->
  unit ->
  t
(** Build the internetwork: at least two segments, at most 250 hosts
    total.  Routes for every host are installed in the gateway. *)

val host : t -> int -> Testbed.host
(** 1-based, by global station address. *)

val kernel : t -> int -> Vkernel.Kernel.t
(** The kernel of {!host}. *)

val medium : t -> int -> Vnet.Medium.t

val run : ?until:Vsim.Time.t -> t -> unit
val run_proc : t -> ?name:string -> (unit -> unit) -> unit

val spec_of_string : string -> (segment_spec list, string) result
(** Parse a topology spec: comma-separated [NET:HOSTS] segments where
    [NET] is [3mb] or [10mb] — e.g. ["3mb:2,10mb:4"]. *)

val make_fs :
  t ->
  host:int ->
  ?latency:Vfs.Disk.latency ->
  ?blocks:int ->
  ?journal_blocks:int ->
  files:(string * int) list ->
  unit ->
  Vfs.Fs.t
(** Like {!Testbed.make_test_fs}, for a multi-segment topology. *)
