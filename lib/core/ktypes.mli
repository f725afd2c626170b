(** The kernel's shared records: processes, aliens, remote exchanges and
    the kernel itself.  Types only, with no implementation: every kernel
    module reads and writes these fields, and {!Kernel} re-exports the
    public ones (status, scope, config, stats). *)

type status =
  | Ok
  | Nonexistent
  | Bad_address
  | No_permission
  | Too_big
  | Retryable
  | Dead

type scope = Local | Remote | Any

type rto_mode = Rto.mode = Fixed | Adaptive

type config = {
  retransmit_timeout_ns : int;
  max_retries : int;
  max_aliens : int;
  rto_mode : rto_mode;
  ip_header_mode : bool;
  process_server_mode : bool;
}

(** The direction of a bulk transfer: MoveTo or MoveFrom. *)
type dir = Vsim.Event.dir = To | From

(** One end of a page train (Section 3.3): the [total] bytes at [ptr].
    The sending end is a MoveTo's mover, whose own space holds them, and
    streams them as its process's one train; the receiving end, a
    MoveTo's receiver or a MoveFrom's requester, places them in [mem]. *)
type train =
  | Out of { ptr : int; total : int }
  | In of {
      mem : Mem.t;
      ptr : int;
      total : int;
      mutable expected : int;  (** the next offset to place *)
      mutable nak_at : int;
          (** the offset the last NAK reported, [-1] if none is
              outstanding: stale in-flight fragments keep arriving after
              a gap is detected, and NAKing each of them spawns one
              redundant restream per NAK *)
    }

(** The segment a reply-blocked process lets its peer move, and the
    inbound MoveTo train the peer streams into it, named by the process's
    [d_mt_last]: the train lives and dies with the wait. *)
type grant = {
  g_access : Msg.access;
  g_ptr : int;
  g_len : int;
  mutable g_in : train option;
}

type queued = {
  q_src : Pid.t;
  q_seq : int;  (** alien seq for remote entries; 0 for local *)
  q_msg : Msg.t;
  q_local : bool;
}

(** The retransmission timer of one remote exchange (Section 3.2): every
    remote Send, MoveTo, MoveFrom and GetPid embeds one, with the
    exchange's retry budget and its round-trip clock.  Each arm cancels
    the previous handle and every end of the exchange cancels the last,
    so a timer that fires always belongs to a live exchange. *)
type retx = {
  mutable rx_dst : int;
      (** estimator key: the destination host, or GetPid's
          pseudo-destination *)
  mutable rx_tries : int;
      (** consecutive silent timer periods: expiries since the exchange
          began or last showed proof of life ({!Exchange.alive}) *)
  mutable rx_since : Vsim.Time.t;
      (** when the round trip started, [-1] once it yielded its one
          sample or was disturbed: by a timer expiry, a reply-pending, a
          forward or a MoveTo fragment to a blocked sender (Karn) *)
  mutable rx_timer : Vsim.Engine.handle;
}

(** A process is ready, blocked in Receive, awaiting a reply or moving
    data; each wait carries what ends it. *)
type pstate =
  | Ready
  | Receiving of {
      msg : Msg.t;
      seg : (int * int) option;
      from : Pid.t option;  (** ReceiveSpecific filter *)
      k : Pid.t * int -> unit;
    }
  | Awaiting_reply of {
      mutable peer : Pid.t;  (** the process that will reply *)
      mutable grant : grant option;  (** the segment [peer] may move *)
      buf : Msg.t;  (** where the reply message lands *)
      k : status -> unit;
      mutable rsend : rsend option;  (** the Send, if [peer] is remote *)
    }
  | Moving of move_out  (** blocked in a remote MoveTo or MoveFrom *)
  | Dead

(** Remote-send state of a locally blocked sender. *)
and rsend = { rs_desc : desc; mutable rs_pkt : Packet.t; rs_retx : retx }

and desc = {
  d_pid : Pid.t;
  d_fiber : Vsim.Proc.t;  (** the fiber that runs the process's body *)
  mutable d_name : string;
  d_mem : Mem.t;
  d_queue : queued Queue.t;
  mutable d_state : pstate;
  mutable d_train_gen : int;
      (** names the one page train this process sources, as a MoveTo's
          mover or a MoveFrom's source: a NAK or a retransmitted request
          starts a fresh stream, and without supersession the old ones
          keep running and flood the receiver with out-of-order
          fragments *)
  mutable d_mt_last : int;
      (** the name (mover host and seq) of the last MoveTo train this
          process took in, [-1] if none: it outlives the wait that held
          the train, so a fragment of that train delayed into a later
          wait is known stale *)
}

(** A process's remote MoveTo or MoveFrom in flight: the mover's [Out]
    train, or the requester's [In]. *)
and move_out = {
  mo_seq : int;
  mo_desc : desc;  (** the moving process *)
  mo_peer : Pid.t;  (** the remote process whose segment we move *)
  mo_peer_ptr : int;  (** where the bytes are in [mo_peer]'s space *)
  mo_train : train;  (** in [mo_desc]'s space *)
  mo_retx : retx;
  mo_done : status -> unit;
}

(** Alien process descriptors: surrogates for remote senders (Section
    3.2).  They hold the message, filter retransmissions and cache the
    reply. *)
type alien_state =
  | A_queued
  | A_received
  | A_replied of {
      reply : Packet.t;
      mutable at : Vsim.Time.t;
          (** when the cached reply was last (re)sent; the reclaim grace
              period counts from here *)
    }
  | A_forwarded of Pid.t  (** where the message went *)

type alien = {
  al_src : Pid.t;
  mutable al_dst : Pid.t;
  mutable al_seq : int;
  mutable al_state : alien_state;
  mutable al_msg : Msg.t;
  mutable al_pkt : Packet.t;
      (** the Send packet of the sender's latest exchange; its data is
          the piggybacked segment prefix *)
}

type registry_entry = { re_pid : Pid.t; re_scope : scope }

type getpid_wait = {
  gw_lid : int;  (** the logical id being resolved *)
  gw_me : Pid.t;  (** the process that first asked *)
  mutable gw_seq : int;  (** of the latest broadcast *)
  gw_retx : retx;
  mutable gw_waiters : (Pid.t option -> unit) list;
}

(** A remote exchange, as its retransmission timer sees it; the
    constructor is the exchange's kind. *)
type exchange =
  | Send of rsend
  | Move of move_out
  | Getpid of getpid_wait

type addressing = Direct | Mapped

(** The kernel's counters, bumped in place. *)
type stats = {
  mutable packets_sent : int;
  mutable packets_received : int;
  mutable retransmissions : int;
  mutable timeouts_fired : int;
  mutable duplicates_filtered : int;
  mutable reply_pendings_sent : int;
  mutable nonexistent_nacks_sent : int;
  mutable gap_naks_sent : int;
  mutable aliens_created : int;
  mutable alien_pool_full : int;
  mutable aliens_reclaimed : int;
  mutable hosts_suspected : int;
  mutable sends_local : int;
  mutable sends_remote : int;
  mutable moves_local : int;
  mutable moves_remote : int;
}

type t = {
  eng : Vsim.Engine.t;
  kcpu : Vhw.Cpu.t;
  nic : Vnet.Nic.t;
  khost : int;
  cfg : config;
  addressing : addressing;
  host_map : Vnet.Addr.t Vsim.Itbl.t;  (** Mapped mode only *)
  mutable procs : desc option array;
      (** slot ({!Pid.slot}) -> the descriptor of the slot's latest
          process, dead or alive; [None] for a slot never handed out.
          Grows by doubling up to {!Pid.slots}. *)
  mutable last_slot : int;  (** the slot handed out last, 0 for none *)
  aliens : alien Vsim.Itbl.t;  (** keyed by [Pid.to_int] of the sender *)
  registry : registry_entry Vsim.Itbl.t;
  getpid_cache : Pid.t Vsim.Itbl.t;
  getpid_waits : getpid_wait Vsim.Itbl.t;
  rto : Rto.t;  (** per-destination timeouts and failure detector *)
  mutable down : bool;  (** crashed and not yet restarted *)
  mutable reply_sent : unit -> unit;
      (** books a remote Reply's server bookkeeping once it is on the
          wire; built once per kernel *)
  mutable restart_hooks : (unit -> unit) list;
  mutable next_seq : int;
  st : stats;
}
