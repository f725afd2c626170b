(** What every kernel module shares beyond the records of {!Ktypes}:
    process lookup, CPU charges, grants, the receive queue, and the
    transmit path, the one place a packet leaves the kernel.  It hides
    how a packet reaches the wire: host addressing (direct or mapped),
    the layered-header and relay-process ablations, and a crashed host's
    silence. *)

open Ktypes

val status_to_string : status -> string

val status_to_code : status -> int
(** The status as a byte, as Nack packets carry it: [Ok] is 0. *)

val refusal_of_code : int -> status option
(** The refusal a Nack's code names: [Nonexistent], [Bad_address],
    [No_permission] or [Too_big].  [None] for any other code, [Ok]'s and
    the exhaustion verdicts ([Retryable], [Dead]) included: a peer
    answers only with a refusal. *)

val max_packet_data : int
(** Data bytes per maximally sized packet (1024). *)

val max_seg_append : int
(** How much of a read-accessible segment a Send piggybacks (512): "at
    least as large as a file block". *)

val model : t -> Vhw.Cost_model.t
val charge : t -> int -> unit
val charge_k : t -> int -> (unit -> unit) -> unit

val charge_async : t -> int -> unit
(** An accounting charge for processor time that overlaps the network
    round trip (timer setup, alien reclamation, ...): nothing waits for
    it, so it is a reservation rather than an event. *)

val next_seq : t -> int
(** A fresh sequence number, unique on this host across crashes. *)

val in_slot : t -> int -> desc option
(** The descriptor of the slot's latest process, dead or alive; [None]
    for a slot never handed out. *)

val find_proc : t -> Pid.t -> desc option
(** A live local process: the one in the pid's slot, if it is that
    pid's. *)

val current : t -> desc
(** The calling process; fails outside a process of this kernel. *)

(** {1 Transmission} *)

val ip_pad : int
(** Bytes of the layered-header ablation's header (20). *)

val addr_for : t -> dst_host:int -> Vnet.Addr.t
val relay_cost : t -> int -> int

(** Who waits for a packet's copy into the interface: the sending
    process ({!Vnet.Nic.send_then}); nobody, the copy being a queued CPU
    grant ({!Vnet.Nic.send_k}); or nobody, from code that makes the send
    its last call while it holds the tail of the event firing, so the
    copy may run in place ({!Vnet.Nic.send_tail_k}). *)
type sender = In_fiber | Queued | At_tail

val send_pkt_gen :
  t -> ?pre_cost:int -> from:sender -> dst_addr:Vnet.Addr.t -> Packet.t ->
  (unit -> unit) -> unit
(** Transmit a packet, then run the continuation.  A crashed host sends
    nothing and runs nothing; a process sending from a crashed host
    waits for good. *)

val send_pkt_k :
  t -> ?pre_cost:int -> tail:bool -> dst_host:int -> Packet.t ->
  (unit -> unit) -> unit
(** From an event callback, or with [~tail:true] as the last call of
    code that holds the tail. *)

val send_pkt : t -> ?pre_cost:int -> dst_host:int -> Packet.t -> unit

(** {1 Waits and grants} *)

val awaiting_reply : pstate -> Pid.t -> bool
(** Whether the state awaits that process's reply. *)

val move_alive : move_out -> bool
(** Whether the move's process is still blocked in it. *)

val unanswered : alien -> bool
(** An alien whose exchange still awaits its answer. *)

val grant_covers :
  grant -> ptr:int -> len:int -> need_write:bool -> bool

val granted :
  desc -> who:Pid.t -> ptr:int -> len:int -> need_write:bool -> bool
(** May [who] move [len] bytes at [ptr] of the process's space: it awaits
    [who]'s reply, granted it that access, and the range lies in its
    space. *)

val grant_of_msg : Msg.t -> grant option

val await :
  peer:Pid.t -> Msg.t -> (status -> unit) -> rsend option -> pstate
(** The wait of a process that sent the message to [peer] and resumes
    with the continuation. *)

(** {1 The receive queue} *)

val pop_valid : ?from:Pid.t -> t -> desc -> queued option
(** Pop the first entry that still stands, optionally only from one
    sender (ReceiveSpecific).  An entry stands while its sender neither
    died nor was superseded by a newer Send; others are dropped, and the
    rest keep their order. *)

val enqueue_msg : t -> desc -> queued -> unit
(** Every enqueue goes through here, so the queue depth is traced. *)

val take_entry :
  t -> desc -> queued -> msg:Msg.t -> seg:(int * int) option -> int
(** The first half of completing a Receive with an entry: copy the
    message, deliver any segment (returning its byte count) and mark the
    sender's alien received. *)

val received : t -> desc -> queued -> int -> Pid.t * int
(** The second half, at the instant the receiver resumes: trace the
    Receive and return what it returns. *)

val try_deliver : t -> tail:bool -> desc -> unit
(** If the process is blocked in Receive and a message stands in its
    queue, complete the Receive and resume it after a context switch.
    With [~tail:true] the caller makes this its last call while it holds
    the tail of the event firing, so the switch may run in place
    ({!Vhw.Cpu.charge_tail}). *)

val trace_reply : t -> desc -> dst:Pid.t -> seq:int -> remote:bool -> unit
