(** The timer of each remote exchange (Section 3.2): a remote Send,
    MoveTo, MoveFrom or GetPid waits on one retransmission timer, with
    its retry budget and its round-trip clock.  It hides when a packet
    is retransmitted, when an exchange gives up ([Retryable], or [Dead]
    once the failure detector suspects the host), and which round trips
    feed the estimator (Karn's rule).  Each arm cancels the previous
    handle and every end of the exchange cancels the last, so a timer
    that fires always belongs to a live exchange. *)

open Ktypes

val new_retx : dst:int -> since:Vsim.Time.t -> retx
(** A timer for an exchange with destination (estimator key) [dst];
    [since] starts the round-trip clock, or is [-1] for an exchange that
    can never be a clean sample. *)

val stop : t -> retx -> unit

val alive : retx -> unit
(** Proof of life from the peer: restart the retry budget, which counts
    consecutive silent periods, not total loss over a long exchange. *)

val karn_sample : t -> retx -> int option
(** The round trip since the clock started, if it is one (Karn):
    nothing disturbed the clock.  A clock yields at most one sample. *)

val settle : t -> retx -> status -> unit
(** Feed the estimator as an exchange ends with a status: a completed
    exchange may be a round-trip sample, any other answer proves the
    peer alive, and exhaustion statuses feed nothing — they must not
    reset the failure count they just raised. *)

val arm : t -> exchange -> unit
(** (Re)arm the exchange's timer, size-scaled for a page train. *)

val transmit : t -> exchange -> unit
(** (Re)send the packet the exchange waits on, and arm its timer: the
    Send, a MoveTo's probe (an empty fragment at the train's end), a
    MoveFrom's request from the first missing offset, or a GetPid
    broadcast. *)

val restart : t -> exchange -> unit
(** Proof of life that is not the awaited answer (a reply-pending, a
    forward notice, a MoveTo fragment to a blocked sender): restart the
    budget and the timer.  The elapsed time now spans more than one
    round trip, so the clock is disturbed. *)

val stop_exchange : t -> desc -> unit
(** Stop the timer of the process's remote exchange, if it waits in
    one. *)

(** {1 Ending exchanges} *)

val wake_sender : t -> tail:bool -> ns:int -> desc -> status -> unit
(** End the process's reply wait with a status: make it ready and
    resume it after a CPU charge of [ns], in place when [tail] holds as
    for {!Kstate.try_deliver}.  A remote Send's timer stops, and its
    Send_done is traced at the instant the sender resumes. *)

val finish_send : t -> tail:bool -> rsend -> status -> unit
(** End a remote Send: settle its clock and wake its sender after a
    context switch. *)

val move_finish : t -> move_out -> status -> unit
(** End a remote MoveTo or MoveFrom, if its process still waits in it. *)

val getpid_finish : t -> getpid_wait -> Pid.t option -> unit
(** End a GetPid broadcast: resume its waiters in the order they
    asked. *)

(** {1 Remote Send} *)

val new_rsend :
  desc -> Msg.t -> dst:Pid.t -> seq:int -> since:Vsim.Time.t -> rsend
(** A remote Send for a local process, piggybacking the head of a
    read-accessible segment (Section 3.4). *)

val launch_send : t -> tail:bool -> rsend -> unit
(** Put a Send its sender now awaits on the wire; its timer arms once
    the packet is, if the sender still awaits it.  [tail] as for
    {!Kstate.send_pkt_k}. *)

val handle_reply_pkt : t -> Packet.t -> unit
(** A Reply for a blocked sender: its message, and a reply segment
    where the sender granted write access. *)

val handle_reply_pending : t -> Packet.t -> unit
val handle_fwd_notice : t -> Packet.t -> unit
