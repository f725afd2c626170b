(** Alien process descriptors (Section 3.2): the kernel's surrogate for
    each remote sender, one per sender, rebound in place by its next
    Send.  It hides the duplicate filter (a retransmitted Send is
    answered from the alien's state: the cached reply, a reply-pending,
    or a forward notice; an older seq is a stale straggler), the reply
    cache and the pool's reclaim rule (a replied alien is evicted only
    two retransmission intervals after its reply was last sent). *)

open Ktypes

val remove : t -> alien -> unit

val send_nack :
  t -> dst_host:int -> src_pid:Pid.t -> dst_pid:Pid.t -> seq:int -> status ->
  unit
(** A NACK carrying a refusal: the destination process does not exist,
    or refused the access. *)

val refuse : t -> Packet.t -> status -> unit
(** Answer a packet with a NACK of the status to its sender. *)

val handle_send_pkt : t -> Packet.t -> unit
(** An incoming Send: create (or rebind) the sender's alien and queue
    the message, or answer a retransmission. *)

val reply :
  t -> desc -> Msg.t -> Pid.t -> seg:(int * int * int) option -> status
(** The calling process's Reply to the alien of a remote sender, with
    [seg] as [(destptr, segptr, segsize)]: the reply packet is the
    Send's acknowledgement, and the alien caches it. *)

val forward :
  t -> desc -> Msg.t -> from_pid:Pid.t -> to_pid:Pid.t -> status
(** Forward, by the calling process, of a message an alien sent: requeue
    it for a local server, or re-launch the Send to a remote one; either
    way the sender's kernel is told where its exchange went. *)
