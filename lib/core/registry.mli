(** The logical process registry (Section 3.1): [SetPid] binds a logical
    id to a pid with a scope, and [GetPid] finds it locally, in the cache
    of earlier answers, or by a broadcast that the hosts holding a
    remote-visible binding answer.  It hides the lookup order, the cache
    and its invalidation, and that concurrent lookups of one id share
    one broadcast, whose timer is keyed by the id. *)

open Ktypes

val handle_getpid_req : t -> Packet.t -> unit
val handle_getpid_reply : t -> Packet.t -> unit
val set_pid : t -> logical_id:int -> Pid.t -> scope -> unit
val get_pid : t -> logical_id:int -> scope -> Pid.t option
val forget_pid : t -> logical_id:int -> unit

val forget_bindings : t -> Pid.t -> unit
(** Drop every cached binding that names the pid: a NACK proved the pid
    itself gone (say, its host crashed and restarted, so the local-id
    space moved on), and the next lookup must broadcast to find the pid
    the new incarnation registered. *)
