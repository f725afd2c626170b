(** Page trains (Section 3.3): MoveTo and MoveFrom stream a segment as
    back-to-back maximally sized packets with one acknowledgement at the
    end.  It hides the train rules: a receiving end places the fragment
    it expects, counts an earlier one a duplicate and NAKs a gap once,
    so a lost fragment is resent from the last one received; a MoveTo's
    train lives in its receiver's grant and dies with the wait; a newer
    train from a mover supersedes an older one; and the receiver refuses
    a fragment that no wait of its awaits. *)

open Ktypes

val complete : train -> bool
(** Whether a receiving end holds its whole train. *)

val handle_data_mt : t -> Packet.t -> unit
(** A MoveTo fragment, or a mover's probe, at the receiver. *)

val handle_data_mf : t -> Packet.t -> unit
(** A MoveFrom fragment at the requester. *)

val handle_data_ack : t -> Packet.t -> unit
(** The one acknowledgement that ends a MoveTo. *)

val handle_data_nak : t -> Packet.t -> unit
(** A gap NAK at the source of a train: restream from its offset. *)

val handle_move_from_req : t -> Packet.t -> unit
(** A MoveFrom request at the source, answered by streaming the granted
    segment from the requested offset. *)

val move :
  t -> desc -> dir -> peer:Pid.t -> ptr:int -> peer_ptr:int -> count:int ->
  seq:int -> status
(** The remote half of a MoveTo ([To]) or MoveFrom ([From]) by the
    calling process: block it until its train ends.  [ptr] is in its own
    space, [peer_ptr] in [peer]'s. *)
