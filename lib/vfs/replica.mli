(** Standby file-server replicas: name-based failover.

    A standby holds the same (dual-ported) filesystem as the primary and
    heartbeats it over IPC.  When the kernel's failure detector declares
    the primary's host dead ({!Vkernel.Kernel.status} [Dead]), or 2
    consecutive probes fail, the standby recovers the
    journaled filesystem ({!Fs.recover}) and starts a {!Server}
    registered under the primary's logical id — so clients running
    session recovery ({!Client.Io.make} with [~recover:true]) re-resolve
    the id and fail over without losing any acknowledged write.  The
    failover contract is spelled out in doc/INTERNETWORK.md. *)

type t

val standby :
  Vkernel.Kernel.t ->
  Fs.t ->
  logical_id:int ->
  ?server_config:Server.config ->
  ?heartbeat_ns:int ->
  unit ->
  t
(** Spawn the monitor process on the standby host.  [server_config]
    (default {!Server.default_config}) configures the server started at
    takeover; its [register_id] is overridden with [logical_id].
    Defaults: 25 ms heartbeat, takeover after 2 consecutive misses (a
    detector verdict of [Dead] takes over immediately).  Raises
    [Invalid_argument] if [fs] has no journal: takeover's recovery must
    raise its {!Fs.epoch}. *)

val stop : t -> unit
(** Ask the monitor to exit at its next wakeup (so an experiment can
    quiesce).  Has no effect after a takeover. *)

val server : t -> Server.t option
(** The server started at takeover, if any. *)

val took_over : t -> bool
val probes : t -> int
