type status =
  | Ok
  | Nonexistent
  | Bad_address
  | No_permission
  | Too_big
  | Retryable
  | Dead

module Itbl = Vsim.Itbl

let k_rto_send = Vsim.Eventq.Kind.intern "kernel.rto_send"
let k_rto_moveto = Vsim.Eventq.Kind.intern "kernel.rto_moveto"
let k_rto_movefrom = Vsim.Eventq.Kind.intern "kernel.rto_movefrom"
let k_rto_getpid = Vsim.Eventq.Kind.intern "kernel.rto_getpid"

let status_to_string = function
  | Ok -> "ok"
  | Nonexistent -> "nonexistent"
  | Bad_address -> "bad-address"
  | No_permission -> "no-permission"
  | Too_big -> "too-big"
  | Retryable -> "retryable"
  | Dead -> "dead"

let pp_status fmt s = Format.pp_print_string fmt (status_to_string s)

(* Status codes as carried in Nack packets' aux field. *)
let status_to_code = function
  | Ok -> 0
  | Nonexistent -> 1
  | Bad_address -> 2
  | No_permission -> 3
  | Too_big -> 4
  | Retryable -> 5
  | Dead -> 6

let status_of_code : int -> status = function
  | 2 -> Bad_address
  | 3 -> No_permission
  | 4 -> Too_big
  | 5 -> Retryable
  | 6 -> Dead
  | _ -> Nonexistent

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

let default_config =
  {
    retransmit_timeout_ns = Vsim.Time.ms 200;
    max_retries = 5;
    max_aliens = 64;
    rto_mode = Fixed;
    ip_header_mode = false;
    process_server_mode = false;
  }

(* Data bytes per maximally-sized packet. *)
let max_packet_data = 1024

(* How much of a read-accessible segment a Send piggybacks: "at least as
   large as a file block". *)
let max_seg_append = 512

(* Address-space size for new processes. *)
let default_mem_size = 256 * 1024

(* The direction of a bulk transfer: MoveTo or MoveFrom. *)
type dir = Vsim.Event.dir = To | From

(* One end of a page train (Section 3.3): the [total] bytes at [ptr].
   The sending end is a MoveTo's mover, whose own space holds them, and
   streams them as its process's one train ({!stream}); the receiving
   end, a MoveTo's receiver or a MoveFrom's requester, places them in
   [mem]. *)
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

(* A receiving end that expects the [total] bytes at [ptr] in [mem]. *)
let train_in ~mem ~ptr ~total =
  In { mem; ptr; total; expected = 0; nak_at = -1 }

(* The segment a reply-blocked process lets its peer move, and the
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

(* The retransmission timer of one remote exchange (Section 3.2): every
   remote Send, MoveTo, MoveFrom and GetPid embeds one, with the
   exchange's retry budget and its round-trip clock.  Each arm cancels the
   previous handle and every end of the exchange cancels the last, so a
   timer that fires always belongs to a live exchange. *)
type retx = {
  mutable rx_dst : int;
      (** estimator key: the destination host, or GetPid's
          pseudo-destination *)
  mutable rx_tries : int;
      (** consecutive silent timer periods: expiries since the exchange
          began or last showed proof of life ({!alive}) *)
  mutable rx_since : Vsim.Time.t;
      (** when the round trip started, [-1] once it yielded its one
          sample or was disturbed: by a timer expiry, a reply-pending, a
          forward or a MoveTo fragment to a blocked sender (Karn) *)
  mutable rx_timer : Vsim.Engine.handle;
}

(* A process is ready, blocked in Receive, awaiting a reply or moving
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

(* Remote-send state of a locally blocked sender. *)
and rsend = { rs_desc : desc; mutable rs_pkt : Packet.t; rs_retx : retx }

and desc = {
  d_pid : Pid.t;
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
      (** [mt_key] of the last MoveTo train this process took in, [-1]
          if none: it outlives the wait that held the train, so a
          fragment of that train delayed into a later wait is known
          stale *)
}

(* A process's remote MoveTo or MoveFrom in flight: the mover's [Out]
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

(* Tests on [pstate] match rather than use [=], which on a type with a
   non-constant constructor is a C call to polymorphic compare. *)
let awaiting_reply state who =
  match state with
  | Awaiting_reply w -> Pid.equal w.peer who
  | Ready | Receiving _ | Moving _ | Dead -> false

(* Alien process descriptors: surrogates for remote senders (Section 3.2).
   They hold the message, filter retransmissions and cache the reply. *)
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

(* An alien whose exchange still awaits its answer. *)
let unanswered al =
  match al.al_state with
  | A_queued | A_received -> true
  | A_replied _ | A_forwarded _ -> false

type registry_entry = { re_pid : Pid.t; re_scope : scope }

type getpid_wait = {
  gw_lid : int;  (** the logical id being resolved *)
  gw_me : Pid.t;  (** the process that first asked *)
  mutable gw_seq : int;  (** of the latest broadcast *)
  gw_retx : retx;
  mutable gw_waiters : (Pid.t option -> unit) list;
}

(* A remote exchange, as its retransmission timer sees it; the
   constructor is the exchange's kind. *)
type exchange =
  | Send of rsend
  | Move of move_out
  | Getpid of getpid_wait

type addressing = Direct | Mapped

type stats = {
  packets_sent : int;
  packets_received : int;
  retransmissions : int;
  timeouts_fired : int;
  duplicates_filtered : int;
  reply_pendings_sent : int;
  nonexistent_nacks_sent : int;
  gap_naks_sent : int;
  aliens_created : int;
  alien_pool_full : int;
  aliens_reclaimed : int;
  hosts_suspected : int;
  sends_local : int;
  sends_remote : int;
  moves_local : int;
  moves_remote : int;
}

type t = {
  eng : Vsim.Engine.t;
  kcpu : Vhw.Cpu.t;
  nic : Vnet.Nic.t;
  khost : int;
  cfg : config;
  addressing : addressing;
  host_map : Vnet.Addr.t Itbl.t;  (** Mapped mode only *)
  procs : desc Itbl.t;  (** local id -> descriptor *)
  fibers : desc Itbl.t;  (** fiber id -> descriptor *)
  aliens : alien Itbl.t;  (** keyed by [Pid.to_int] of the sender *)
  mutable alien_count : int;
  registry : registry_entry Itbl.t;
  getpid_cache : Pid.t Itbl.t;
  getpid_waits : getpid_wait Itbl.t;
  rto : Rto.t;  (** per-destination timeouts and failure detector *)
  kfibers : Vsim.Proc.t Itbl.t;
      (** fiber id -> fiber, so a crash can kill every process *)
  mutable down : bool;  (** crashed and not yet restarted *)
  mutable reply_sent : unit -> unit;
      (** books a remote Reply's server bookkeeping once it is on the
          wire; built once per kernel *)
  mutable restart_hooks : (unit -> unit) list;
  mutable next_local_id : int;
  mutable next_seq : int;
  (* statistics *)
  mutable s_tx : int;
  mutable s_rx : int;
  mutable s_retrans : int;
  mutable s_dups : int;
  mutable s_rpend : int;
  mutable s_nacks : int;
  mutable s_naks : int;
  mutable s_aliens : int;
  mutable s_pool_full : int;
  mutable s_reclaims : int;
  mutable s_send_local : int;
  mutable s_send_remote : int;
  mutable s_move_local : int;
  mutable s_move_remote : int;
}

let engine t = t.eng
let cpu t = t.kcpu
let host t = t.khost
let config t = t.cfg
let model t = Vhw.Cpu.model t.kcpu

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let charge t ns = Vhw.Cpu.charge t.kcpu ns
let charge_k t ns k = Vhw.Cpu.charge_k t.kcpu ns k

(* Asynchronous accounting charge: real processor time that overlaps the
   network round trip (timer setup, alien reclamation, ...).  Nothing
   waits for it, so it is a reservation rather than an event. *)
let charge_async t ns = Vhw.Cpu.reserve t.kcpu ns

let next_seq t =
  t.next_seq <- t.next_seq + 1;
  t.next_seq

let find_proc t pid =
  if Pid.host pid <> t.khost then None
  else
    match Itbl.find_opt t.procs (Pid.local pid) with
    | Some { d_state = Dead; _ } | None -> None
    | Some _ as found -> found

(* The engine names the fiber it is running (0 in a plain event
   callback, which no table holds); a fiber of another kernel is not in
   this one's table either. *)
let current t =
  match Itbl.find t.fibers (Vsim.Engine.current t.eng) with
  | d -> d
  | exception Not_found ->
      Fmt.failwith "V kernel operation outside a process of host %d" t.khost

(* ------------------------------------------------------------------ *)
(* Retransmission timeouts                                             *)

(* GetPid broadcasts have no single destination host.  They used to share
   one estimator under a single pseudo-destination (-1), but once
   broadcasts span gateway-joined segments with different round-trip
   times that is wrong both ways: a slow segment's samples inflate the
   timeout for every local lookup, and a fast segment's samples starve a
   cross-gateway lookup into spurious retransmission.  Each logical id
   answers from one place, so keying the estimator by the id being
   resolved gives every service its own (effectively per-segment/per-hop)
   timer.  Pseudo-destinations are negative, disjoint from host ids. *)
let getpid_dst ~logical_id = -1 - logical_id

let host_suspected t ~host = Rto.suspected t.rto ~dst:host
let rto_estimate_ns t ~dst_host = Rto.base_ns t.rto ~dst:dst_host ~bytes:0

(* ------------------------------------------------------------------ *)
(* Packet transmission                                                 *)

let ip_pad = 20

let addr_for t ~dst_host =
  match t.addressing with
  | Direct -> dst_host land 0xFF
  | Mapped -> (
      match Itbl.find_opt t.host_map dst_host with
      | Some a -> a
      | None -> Vnet.Addr.broadcast)

(* The process-level network server ablation: model the relay process the
   paper rejected — an extra message copy plus two context switches on
   every packet, in each direction. *)
let relay_cost t len =
  let m = model t in
  (2 * m.Vhw.Cost_model.context_switch_ns)
  + m.Vhw.Cost_model.send_op_ns
  + (len * m.Vhw.Cost_model.mem_copy_ns_per_byte)

(* Who waits for a packet's copy into the interface: the sending
   process ({!Vnet.Nic.send_then}); nobody, the copy being a queued
   CPU grant ({!Vnet.Nic.send_k}); or nobody, from code that makes the
   send its last call while it holds the tail of the event firing, so
   the copy may run in place ({!Vnet.Nic.send_tail_k}). *)
type sender = In_fiber | Queued | At_tail

(* Transmit [pkt] from [from], then run [k]. *)
let send_pkt_gen t ?(pre_cost = 0) ~from ~dst_addr pkt k =
  if t.down then begin
    (* a crashed host transmits nothing; the continuation belongs to
       protocol machinery that died with it, and a sending process
       waits for good *)
    match from with
    | In_fiber -> Vsim.Proc.suspend ignore
    | Queued | At_tail -> ()
  end
  else begin
  let payload = Packet.to_bytes pkt in
  let payload =
    if t.cfg.ip_header_mode then Bytes.cat (Bytes.make ip_pad '\000') payload
    else payload
  in
  let pre_cost =
    pre_cost
    + (if t.cfg.ip_header_mode then
         (model t).Vhw.Cost_model.ip_header_extra_ns
       else 0)
    + (if t.cfg.process_server_mode then relay_cost t (Bytes.length payload)
       else 0)
  in
  t.s_tx <- t.s_tx + 1;
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Packet_tx
         {
           host = t.khost;
           op = Packet.op_to_string pkt.Packet.op;
           src = Pid.to_int pkt.Packet.src_pid;
           dst = Pid.to_int pkt.Packet.dst_pid;
           seq = pkt.Packet.seq;
           bytes = Bytes.length payload;
         });
  let ethertype = Vnet.Frame.ethertype_kernel in
  match from with
  | In_fiber ->
      Vnet.Nic.send_then t.nic ~pre_cost ~dst:dst_addr ~ethertype payload k
  | Queued ->
      Vnet.Nic.send_k t.nic ~pre_cost ~dst:dst_addr ~ethertype payload k
  | At_tail ->
      Vnet.Nic.send_tail_k t.nic ~pre_cost ~dst:dst_addr ~ethertype payload k
  end

(* From an event callback, or with [~tail:true] as the last call of
   code that holds the tail. *)
let send_pkt_k t ?pre_cost ~tail ~dst_host pkt k =
  send_pkt_gen t ?pre_cost
    ~from:(if tail then At_tail else Queued)
    ~dst_addr:(addr_for t ~dst_host) pkt k

let send_pkt t ?pre_cost ~dst_host pkt =
  send_pkt_k t ?pre_cost ~tail:false ~dst_host pkt ignore

(* ------------------------------------------------------------------ *)
(* Grants                                                              *)

let grant_covers (g : grant) ~ptr ~len ~need_write =
  (match g.g_access, need_write with
  | (Msg.Write_only | Msg.Read_write), true -> true
  | (Msg.Read_only | Msg.Read_write), false -> true
  | Msg.Read_only, true | Msg.Write_only, false -> false)
  && ptr >= g.g_ptr
  && ptr + len <= g.g_ptr + g.g_len

(* May [who] move [len] bytes at [ptr] of [d]'s space: [d] awaits [who]'s
   reply, granted it that access, and the range lies in its space. *)
let granted (d : desc) ~who ~ptr ~len ~need_write =
  match d.d_state with
  | Awaiting_reply { peer; grant = Some g; _ } ->
      Pid.equal peer who
      && grant_covers g ~ptr ~len ~need_write
      && Mem.valid d.d_mem ~pos:ptr ~len
  | Awaiting_reply { grant = None; _ } | Ready | Receiving _ | Moving _ | Dead
    ->
      false

let grant_of_msg msg =
  match Msg.segment msg with
  | None -> None
  | Some (g_access, g_ptr, g_len) ->
      Some { g_access; g_ptr; g_len; g_in = None }

(* The wait of a process that sent [msg] to [peer] and resumes with [k]. *)
let await ~peer msg k rsend =
  Awaiting_reply { peer; grant = grant_of_msg msg; buf = msg; k; rsend }

(* ------------------------------------------------------------------ *)
(* Message delivery to receivers                                       *)

(* Deliver the segment piggyback for ReceiveWithSegment.  Local senders'
   segments are read straight out of their address space; remote senders'
   arrive as appended packet data. *)
let deliver_segment t ~(entry : queued) ~seg ~(recv : desc) =
  match seg with
  | None -> 0
  | Some (segptr, segsize) -> (
      let m = model t in
      if entry.q_local then
        match
          ( (if Msg.piggyback_allowed entry.q_msg then
               Msg.readable_segment entry.q_msg
             else None),
            find_proc t entry.q_src )
        with
        | Some (sptr, slen), Some sender ->
            let count = Int.min slen segsize in
            let count =
              if
                Mem.valid sender.d_mem ~pos:sptr ~len:count
                && Mem.valid recv.d_mem ~pos:segptr ~len:count
              then count
              else 0
            in
            if count > 0 then begin
              charge_async t
                (m.Vhw.Cost_model.segment_handling_ns
                + (count * m.Vhw.Cost_model.mem_copy_ns_per_byte));
              Mem.transfer ~src:sender.d_mem ~src_pos:sptr ~dst:recv.d_mem
                ~dst_pos:segptr ~len:count
            end;
            count
        | _ -> 0
      else
        match Itbl.find_opt t.aliens (Pid.to_int entry.q_src) with
        | Some al when al.al_seq = entry.q_seq ->
            let count = Int.min al.al_pkt.Packet.data_len segsize in
            let count =
              if Mem.valid recv.d_mem ~pos:segptr ~len:count then count else 0
            in
            if count > 0 then begin
              (* The NIC already paid the per-byte copy; placing the data in
                 its final location costs only the segment bookkeeping. *)
              charge_async t m.Vhw.Cost_model.segment_handling_ns;
              Packet.blit_data al.al_pkt recv.d_mem ~pos:segptr ~len:count
            end;
            count
        | Some _ | None -> 0)

(* An entry still stands if its sender has neither died nor been
   superseded by a newer retransmission epoch. *)
let entry_valid t (d : desc) (entry : queued) =
  if entry.q_local then
    match find_proc t entry.q_src with
    | Some sender -> awaiting_reply sender.d_state d.d_pid
    | None -> false
  else
    match Itbl.find t.aliens (Pid.to_int entry.q_src) with
    | { al_state = A_queued; al_seq; _ } -> al_seq = entry.q_seq
    | { al_state = A_received | A_replied _ | A_forwarded _; _ } -> false
    | exception Not_found -> false

(* Pop the first valid entry, optionally only from a specific sender
   (ReceiveSpecific); dead entries are discarded, others retained in
   order. *)
let pop_valid ?from t (d : desc) =
  if Queue.is_empty d.d_queue then None
  else begin
    let keep = Queue.create () in
    let rec scan found =
      match Queue.take_opt d.d_queue with
      | None -> found
      | Some entry ->
          if not (entry_valid t d entry) then scan found
          else if
            found = None
            && (match from with
               | None -> true
               | Some pid -> Pid.equal pid entry.q_src)
          then scan (Some entry)
          else begin
            Queue.add entry keep;
            scan found
          end
    in
    let found = scan None in
    Queue.transfer keep d.d_queue;
    found
  end

let mark_received t (entry : queued) =
  if not entry.q_local then
    match Itbl.find t.aliens (Pid.to_int entry.q_src) with
    | al -> al.al_state <- A_received
    | exception Not_found -> ()

(* All message enqueues onto a receiver's queue go through here so the
   queue depth is observable. *)
let enqueue_msg t (d : desc) entry =
  Queue.add entry d.d_queue;
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Queue_depth
         {
           host = t.khost;
           pid = Pid.to_int d.d_pid;
           depth = Queue.length d.d_queue;
         })

(* If [d] is blocked in Receive and a message is available, complete the
   Receive: copy the message, deliver any segment, charge the context
   switch and resume the fiber.  With [~tail:true] the caller makes this
   its last call while it holds the tail of the event firing, so the
   context switch may run in place ({!Vhw.Cpu.charge_tail}). *)
let try_deliver t ~tail (d : desc) =
  match d.d_state with
  | Ready | Awaiting_reply _ | Moving _ | Dead -> ()
  | Receiving r -> (
      match pop_valid ?from:r.from t d with
      | None -> ()
      | Some entry ->
          d.d_state <- Ready;
          Msg.blit ~src:entry.q_msg ~dst:r.msg;
          let count = deliver_segment t ~entry ~seg:r.seg ~recv:d in
          mark_received t entry;
          let k = r.k in
          (if tail then Vhw.Cpu.charge_tail else Vhw.Cpu.charge_k)
            t.kcpu (model t).Vhw.Cost_model.context_switch_ns (fun () ->
              if Vsim.Trace.tracing t.eng then
                Vsim.Trace.event t.eng
                  (Vsim.Event.Receive
                     {
                       host = t.khost;
                       pid = Pid.to_int d.d_pid;
                       src = Pid.to_int entry.q_src;
                       seq = entry.q_seq;
                       bytes = count;
                     });
              k (entry.q_src, count)))

(* ------------------------------------------------------------------ *)
(* Alien management                                                    *)

let remove_alien t (al : alien) =
  Itbl.remove t.aliens (Pid.to_int al.al_src);
  t.alien_count <- t.alien_count - 1

(* Reclaim a replied alien to make room; returns true on success.

   Only replied aliens are candidates — their exchange is over — but a
   cached reply is still load-bearing while the sender's retransmission
   window is plausibly open: evicting it early would let a retransmitted
   Send re-execute a non-idempotent operation (Section 3.2).  So we evict
   only the alien whose cached reply was least recently (re)sent, and
   only once two retransmission intervals have passed since — by then a
   live sender would have retransmitted and refreshed it.  The tie-break
   on sender pid keeps the choice independent of hash order. *)
let reclaim_one_alien t =
  let now = Vsim.Engine.now t.eng in
  let grace al =
    2 * Rto.base_ns t.rto ~dst:(Pid.host al.al_src) ~bytes:0
  in
  (* When a replied alien's reply was last (re)sent; any other alien
     reads as never, so it is never old enough to reclaim. *)
  let replied_at al =
    match al.al_state with
    | A_replied r -> r.at
    | A_queued | A_received | A_forwarded _ -> max_int
  in
  let older a b =
    replied_at a < replied_at b
    || (replied_at a = replied_at b
       && Pid.to_int a.al_src < Pid.to_int b.al_src)
  in
  let victim =
    Itbl.fold
      (fun _ al acc ->
        if now - replied_at al < grace al then acc
        else
          match acc with
          | Some best when older best al -> acc
          | Some _ | None -> Some al)
      t.aliens None
  in
  match victim with
  | Some al ->
      remove_alien t al;
      t.s_reclaims <- t.s_reclaims + 1;
      true
  | None -> false

(* ------------------------------------------------------------------ *)
(* NACKs and reply-pendings                                            *)

let send_nack t ~dst_host ~src_pid ~dst_pid ~seq st =
  t.s_nacks <- t.s_nacks + 1;
  send_pkt t ~dst_host
    (Packet.make ~op:Packet.Nack ~src_pid ~dst_pid ~seq
       ~aux:(status_to_code st) ())

(* Answer [pkt] with a NACK of [st] to its sender. *)
let refuse t (pkt : Packet.t) st =
  send_nack t ~dst_host:(Pid.host pkt.Packet.src_pid)
    ~src_pid:pkt.Packet.dst_pid ~dst_pid:pkt.Packet.src_pid ~seq:pkt.Packet.seq
    st

(* Tell [sender]'s kernel that its Send [seq], which [by] received, went
   on to [to_pid]: its retransmissions and grant must follow. *)
let send_fwd_notice t ~by ~sender ~seq ~to_pid =
  send_pkt t ~dst_host:(Pid.host sender)
    (Packet.make ~op:Packet.Fwd_notice ~src_pid:by ~dst_pid:sender ~seq
       ~aux:(Pid.to_int to_pid) ())

let send_reply_pending t ~dst_host ~src_pid ~dst_pid ~seq =
  t.s_rpend <- t.s_rpend + 1;
  send_pkt t ~dst_host
    (Packet.make ~op:Packet.Reply_pending ~src_pid ~dst_pid ~seq ())

(* ------------------------------------------------------------------ *)
(* Ending remote exchanges                                             *)

let new_retx ~dst ~since =
  { rx_dst = dst; rx_tries = 0; rx_since = since; rx_timer = Vsim.Eventq.none }

let stop t rx = Vsim.Engine.cancel t.eng rx.rx_timer

(* Proof of life from the peer: restart the retry budget, which counts
   consecutive silent periods, not total loss over a long exchange. *)
let alive rx = rx.rx_tries <- 0

(* The round trip since the clock started, if it is one (Karn): nothing
   disturbed the clock.  A clock yields at most one sample. *)
let karn_sample t rx =
  let since = rx.rx_since in
  rx.rx_since <- -1;
  if since >= 0 then Some (Vsim.Engine.now t.eng - since) else None

(* Feed the estimator as an exchange ends with [st]: a completed exchange
   may be a round-trip sample, any other answer proves the peer alive,
   and exhaustion statuses feed nothing — they must not reset the failure
   count they just raised. *)
let settle t rx st =
  match st with
  | Retryable | Dead -> ()
  | Ok -> Rto.note_success t.rto ~dst:rx.rx_dst ~sample_ns:(karn_sample t rx)
  | Nonexistent | Bad_address | No_permission | Too_big ->
      Rto.note_success t.rto ~dst:rx.rx_dst ~sample_ns:None

let send_done t (d : desc) ~seq st =
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Send_done
         {
           host = t.khost;
           pid = Pid.to_int d.d_pid;
           seq;
           status = status_to_string st;
         })

(* End [d]'s reply wait with [st]: make it ready and resume it after a
   CPU charge of [ns], in place when [tail] holds as for [try_deliver].
   A remote Send's timer stops, and its Send_done marks the instant the
   sender resumes; spans use it as the close timestamp, so it fires
   inside the charge's continuation, at the same engine time as the
   resume. *)
let wake_sender t ~tail ~ns (d : desc) st =
  match d.d_state with
  | Ready | Receiving _ | Moving _ | Dead -> ()
  | Awaiting_reply w -> (
      d.d_state <- Ready;
      let k = w.k in
      let wait = if tail then Vhw.Cpu.charge_tail else Vhw.Cpu.charge_k in
      match w.rsend with
      | None -> wait t.kcpu ns (fun () -> k st)
      | Some rs ->
          stop t rs.rs_retx;
          let seq = rs.rs_pkt.Packet.seq in
          wait t.kcpu ns (fun () ->
              send_done t d ~seq st;
              k st))

(* End remote Send [rs] with [st] and wake its sender after a context
   switch. *)
let finish_send t ~tail (rs : rsend) st =
  settle t rs.rs_retx st;
  if st = Nonexistent then begin
    (* Proof-positive the pid itself is gone — e.g. its host crashed and
       restarted, so the local-id space moved on.  Any GetPid binding
       still naming it is stale; drop it so the next lookup re-broadcasts
       and finds the pid the new incarnation registered. *)
    let dst = rs.rs_pkt.Packet.dst_pid in
    let stale =
      Itbl.fold
        (fun lid p acc -> if Pid.equal p dst then lid :: acc else acc)
        t.getpid_cache []
    in
    List.iter (Itbl.remove t.getpid_cache) stale
  end;
  wake_sender t ~tail ~ns:(model t).Vhw.Cost_model.context_switch_ns
    rs.rs_desc st

(* Whether [mo]'s mover is still blocked in it. *)
let move_alive (mo : move_out) =
  match mo.mo_desc.d_state with
  | Moving m -> m == mo
  | Ready | Receiving _ | Awaiting_reply _ | Dead -> false

let move_finish t (mo : move_out) st =
  if move_alive mo then begin
    stop t mo.mo_retx;
    mo.mo_desc.d_state <- Ready;
    (* A MoveTo's gap from end-of-train to Data_ack is a pure control
       round trip; a MoveFrom's clock gave its sample at the first
       fragment (handle_data_mf), so here it only records liveness. *)
    settle t mo.mo_retx st;
    charge_k t (model t).Vhw.Cost_model.context_switch_ns (fun () ->
        if Vsim.Trace.tracing t.eng then
          Vsim.Trace.event t.eng
            (Vsim.Event.Move_done
               {
                 host = t.khost;
                 seq = mo.mo_seq;
                 status = status_to_string st;
               });
        mo.mo_done st)
  end

let getpid_finish t (gw : getpid_wait) found =
  stop t gw.gw_retx;
  Itbl.remove t.getpid_waits gw.gw_lid;
  List.iter (fun k -> k found) (List.rev gw.gw_waiters)

let finish t x st =
  match x with
  | Send rs -> finish_send t ~tail:false rs st
  | Move mo -> move_finish t mo st
  | Getpid gw -> getpid_finish t gw None

(* ------------------------------------------------------------------ *)
(* The retransmission timer                                            *)

let retx_of = function
  | Send rs -> rs.rs_retx
  | Move mo -> mo.mo_retx
  | Getpid gw -> gw.gw_retx

let retx_seq = function
  | Send rs -> rs.rs_pkt.Packet.seq
  | Move mo -> mo.mo_seq
  | Getpid gw -> gw.gw_seq

let retx_label = function
  | Send _ -> "send"
  | Move { mo_train = Out _; _ } -> "move-to"
  | Move { mo_train = In _; _ } -> "move-from"
  | Getpid _ -> "getpid"

let rec arm t x =
  let rx = retx_of x in
  stop t rx;
  (* Data timers are size-scaled: they arm with at most one fragment (or
     the request round trip) outstanding, so the margin covers a
     fragment, not the whole transfer. *)
  let bytes =
    match x with
    | Send _ | Getpid _ -> 0
    | Move { mo_train = Out { total; _ } | In { total; _ }; _ } ->
        Int.min total max_packet_data
  in
  let kind =
    match x with
    | Send _ -> k_rto_send
    | Move { mo_train = Out _; _ } -> k_rto_moveto
    | Move { mo_train = In _; _ } -> k_rto_movefrom
    | Getpid _ -> k_rto_getpid
  in
  let rto = Rto.timeout_ns t.rto ~dst:rx.rx_dst ~bytes in
  rx.rx_timer <-
    Vsim.Engine.after_kind t.eng ~kind rto (fun () -> expire t x ~rto)

(* Every timer expiry: count it, back off and trace the interval that
   fired; then fail the exchange once its retries are spent, or
   retransmit and wait again. *)
and expire t x ~rto =
  let rx = retx_of x in
  rx.rx_tries <- rx.rx_tries + 1;
  rx.rx_since <- -1;
  Rto.note_expiry t.rto ~dst:rx.rx_dst ~kind:(retx_label x) ~seq:(retx_seq x)
    ~attempt:rx.rx_tries ~rto_ns:rto;
  if rx.rx_tries > t.cfg.max_retries then
    finish t x
      (if Rto.note_exhausted t.rto ~dst:rx.rx_dst then Dead else Retryable)
  else begin
    t.s_retrans <- t.s_retrans + 1;
    (* A rebroadcast identical to the lost one would be suppressed as a
       duplicate by any gateway that forwarded the first. *)
    (match x with
    | Getpid gw -> gw.gw_seq <- next_seq t
    | Send _ | Move _ -> ());
    if Vsim.Trace.tracing t.eng then
      Vsim.Trace.event t.eng
        (Vsim.Event.Retransmit
           {
             host = t.khost;
             kind = retx_label x;
             seq = retx_seq x;
             attempt = rx.rx_tries;
           });
    transmit t x
  end

(* (Re)send the packet the exchange waits on, and arm its timer. *)
and transmit t x =
  match x with
  | Send rs ->
      send_pkt t ~dst_host:rs.rs_retx.rx_dst rs.rs_pkt;
      arm t x
  | Move ({ mo_train = Out { total; _ }; _ } as mo) ->
      (* Probe with an empty fragment at [total]: a receiver that is done
         re-acks; one mid-transfer NAKs with the offset it needs, giving
         retransmission from the last correctly received packet. *)
      send_pkt t ~dst_host:mo.mo_retx.rx_dst
        (Packet.make ~op:Packet.Data_mt ~src_pid:mo.mo_desc.d_pid
           ~dst_pid:mo.mo_peer ~seq:mo.mo_seq ~offset:total ~total
           ~aux:mo.mo_peer_ptr ());
      arm t x
  | Move ({ mo_train = In r; _ } as mo) ->
      r.nak_at <- -1;
      let req =
        Packet.make ~op:Packet.Move_from_req ~src_pid:mo.mo_desc.d_pid
          ~dst_pid:mo.mo_peer ~seq:mo.mo_seq ~offset:r.expected ~total:r.total
          ~aux:mo.mo_peer_ptr ()
      in
      send_pkt_k t ~tail:false ~dst_host:mo.mo_retx.rx_dst req (fun () ->
          charge_async t (model t).Vhw.Cost_model.send_bookkeep_ns;
          if move_alive mo then arm t x)
  | Getpid gw ->
      send_pkt_gen t ~from:Queued ~dst_addr:Vnet.Addr.broadcast
        (Packet.make ~op:Packet.Getpid_req ~src_pid:gw.gw_me
           ~dst_pid:Pid.nil ~seq:gw.gw_seq ~aux:gw.gw_lid ())
        ignore;
      arm t x

(* Proof of life that is not the awaited answer (a reply-pending, a
   forward notice, a MoveTo fragment to a blocked sender): restart the
   budget and the timer.  The elapsed time now spans more than one round
   trip, so the clock is disturbed. *)
let restart t x =
  let rx = retx_of x in
  alive rx;
  rx.rx_since <- -1;
  arm t x

(* A remote Send for local process [d], piggybacking the head of a
   read-accessible segment (Section 3.4).  [since] starts the round-trip
   clock, or is [-1] for an exchange that can never be a clean sample. *)
let new_rsend (d : desc) msg ~dst ~seq ~since =
  let data =
    match
      if Msg.piggyback_allowed msg then Msg.readable_segment msg else None
    with
    | Some (ptr, len) ->
        let n = Int.min len max_seg_append in
        if Mem.valid d.d_mem ~pos:ptr ~len:n then Some (d.d_mem, ptr, n)
        else None
    | None -> None
  in
  let pkt =
    Packet.make ~op:Packet.Send ~src_pid:d.d_pid ~dst_pid:dst ~seq ~msg
      ?data ()
  in
  { rs_desc = d; rs_pkt = pkt; rs_retx = new_retx ~dst:(Pid.host dst) ~since }

(* Put [rs], which its sender now awaits, on the wire; its timer arms
   once the packet is, if the sender still awaits it.  [tail] as for
   [send_pkt_k]. *)
let launch_send t ~tail (rs : rsend) =
  send_pkt_k t ~tail ~dst_host:rs.rs_retx.rx_dst rs.rs_pkt (fun () ->
      charge_async t (model t).Vhw.Cost_model.send_bookkeep_ns;
      match rs.rs_desc.d_state with
      | Awaiting_reply { rsend = Some rs'; _ } when rs' == rs -> arm t (Send rs)
      | Awaiting_reply _ | Ready | Receiving _ | Moving _ | Dead -> ())

(* ------------------------------------------------------------------ *)
(* MoveTo / MoveFrom streaming                                         *)

(* Send [sd]'s page train (Section 3.3): the [total] bytes at [ptr] in
   its space from offset [from] on, as back-to-back maximally sized
   packets with no per-packet acknowledgement.  A process sources at most
   one train at a time (a mover is blocked in its move, a MoveFrom source
   awaits its reply), so the stream supersedes any that [sd] still runs:
   a NAK or a retransmitted request starts a fresh one.  A train is at
   least one packet, so a 0-byte move sends one empty fragment at offset
   0.  Each fragment goes out only while [live ()] holds, and [at_end]
   runs once the last one is on the wire.  Every caller makes the stream
   its last call while it holds the tail of the event firing, and so does
   each fragment's copy-out completion for the next, so a fragment that
   finds the transmit buffer free (the first, unless an earlier train
   still holds it) may copy out in place. *)
let stream t (sd : desc) ~op ~dst_pid ~seq ~ptr ~total ~aux ~live ~at_end
    ~from =
  sd.d_train_gen <- sd.d_train_gen + 1;
  let gen = sd.d_train_gen in
  (* An empty train's one fragment steps the cursor past its end. *)
  let rec go cursor =
    if not (sd.d_train_gen = gen && live ()) then ()
    else if cursor >= Int.max total 1 then at_end ()
    else begin
      let len = Int.min max_packet_data (total - cursor) in
      let pkt =
        Packet.make ~op ~src_pid:sd.d_pid ~dst_pid ~seq ~offset:cursor ~total
          ~aux ~data:(sd.d_mem, ptr + cursor, len) ()
      in
      send_pkt_k t ~pre_cost:(model t).Vhw.Cost_model.data_pkt_op_ns
        ~tail:true ~dst_host:(Pid.host dst_pid) pkt (fun () ->
          go (cursor + Int.max len 1))
    end
  in
  go from

(* (Re)stream MoveTo [mo], whose train is the [total] bytes at [ptr] in
   its mover's space, from [from], then wait for the Data_ack: each end of
   train starts the round trip that the Data_ack ends. *)
let stream_to t (mo : move_out) ~ptr ~total ~from =
  stop t mo.mo_retx;
  stream t mo.mo_desc ~op:Packet.Data_mt ~dst_pid:mo.mo_peer ~seq:mo.mo_seq
    ~ptr ~total ~aux:mo.mo_peer_ptr ~from
    ~live:(fun () -> move_alive mo)
    ~at_end:(fun () ->
      charge_async t (model t).Vhw.Cost_model.send_bookkeep_ns;
      mo.mo_retx.rx_since <- Vsim.Engine.now t.eng;
      arm t (Move mo))

(* (Re)stream a MoveFrom's data from local reply-blocked process [sd]'s
   granted segment back to the remote [requester]. *)
let stream_from t (sd : desc) ~requester ~seq ~ptr ~total ~from =
  stream t sd ~op:Packet.Data_mf ~dst_pid:requester ~seq ~ptr ~total ~aux:0
    ~from
    ~live:(fun () -> granted sd ~who:requester ~ptr ~len:total ~need_write:false)
    ~at_end:(fun () ->
      charge_async t (model t).Vhw.Cost_model.server_bookkeep_ns)

(* The receiving end of a page train, for the MoveTo receiver and the
   MoveFrom requester alike: the fragment at [expected] is placed, an
   earlier one is a duplicate, and a later one shows a gap, which is NAKed
   once per gap with the NAK's [total] and [aux].  A mover's probe, an
   empty fragment at the train's end, is always answered, so a lost NAK
   is repaired by the mover's timer as a MoveFrom's is by its request
   retransmission.  Returns whether the fragment was placed. *)
let take t train (pkt : Packet.t) ~total ~aux =
  match train with
  | Out _ -> false
  | In r ->
      let off = pkt.Packet.offset and len = pkt.Packet.data_len in
      if off = r.expected then begin
        if len > 0 then Packet.blit_data pkt r.mem ~pos:(r.ptr + off) ~len;
        r.expected <- off + len;
        r.nak_at <- -1;
        true
      end
      else if off < r.expected then begin
        t.s_dups <- t.s_dups + 1;
        false
      end
      else begin
        if r.nak_at <> r.expected || (off = r.total && len = 0) then begin
          r.nak_at <- r.expected;
          t.s_naks <- t.s_naks + 1;
          send_pkt t ~dst_host:(Pid.host pkt.Packet.src_pid)
            (Packet.make ~op:Packet.Data_nak ~src_pid:pkt.Packet.dst_pid
               ~dst_pid:pkt.Packet.src_pid ~seq:pkt.Packet.seq
               ~offset:r.expected ~total ~aux ())
        end;
        false
      end

(* Whether a receiving end holds its whole train. *)
let complete = function
  | In { expected; total; _ } -> expected >= total
  | Out _ -> false

(* ------------------------------------------------------------------ *)
(* Receive path: packet handlers                                       *)

(* Queue an alien's new message for [dd]. *)
let accept_alien t dd al =
  t.s_aliens <- t.s_aliens + 1;
  enqueue_msg t dd
    { q_src = al.al_src; q_seq = al.al_seq; q_msg = al.al_msg;
      q_local = false };
  try_deliver t ~tail:true dd

(* An incoming Send packet: create (or rebind) the sender's alien, queue
   the message, answer retransmissions per Section 3.2. *)
let handle_send_pkt t (pkt : Packet.t) =
  let src = pkt.Packet.src_pid and dst = pkt.Packet.dst_pid in
  let reply_host = Pid.host src in
  match find_proc t dst with
  | None -> refuse t pkt Nonexistent
  | Some dd -> (
      match Itbl.find_opt t.aliens (Pid.to_int src) with
      | Some al when al.al_seq = pkt.Packet.seq -> (
          (* Retransmission of a message we already hold. *)
          t.s_dups <- t.s_dups + 1;
          match al.al_state with
          | A_replied r ->
              (* Re-serving the cached reply proves the sender is still
                 retransmitting: restart its reclaim grace period. *)
              r.at <- Vsim.Engine.now t.eng;
              send_pkt t ~dst_host:reply_host r.reply
          | A_forwarded to_pid ->
              (* The exchange moved on: remind the sender where, so its
                 retransmissions reach the kernel that can answer. *)
              send_fwd_notice t ~by:dst ~sender:src ~seq:pkt.Packet.seq ~to_pid
          | A_queued | A_received ->
              send_reply_pending t ~dst_host:reply_host ~src_pid:dst
                ~dst_pid:src ~seq:pkt.Packet.seq)
      | Some al when pkt.Packet.seq < al.al_seq ->
          (* A stale straggler (delayed or reordered in the network) from
             an exchange this sender has already completed: sequence
             numbers from one sender only grow, so the alien's newer seq
             proves the sender moved on.  Filter it — delivering it as a
             fresh message would apply a non-idempotent operation twice. *)
          t.s_dups <- t.s_dups + 1
      | Some al ->
          (* A new message from this sender supersedes its older one: the
             sender's alien takes it in place, so entries queued for the
             old seq go stale and the pool keeps its count. *)
          al.al_dst <- dst;
          al.al_seq <- pkt.Packet.seq;
          al.al_state <- A_queued;
          al.al_msg <- Packet.msg pkt;
          al.al_pkt <- pkt;
          accept_alien t dd al
      | None ->
          if t.alien_count >= t.cfg.max_aliens && not (reclaim_one_alien t)
          then begin
            (* No descriptors available: discard, tell sender to wait. *)
            t.s_pool_full <- t.s_pool_full + 1;
            send_reply_pending t ~dst_host:reply_host ~src_pid:dst
              ~dst_pid:src ~seq:pkt.Packet.seq
          end
          else begin
            let al =
              {
                al_src = src;
                al_dst = dst;
                al_seq = pkt.Packet.seq;
                al_state = A_queued;
                al_msg = Packet.msg pkt;
                al_pkt = pkt;
              }
            in
            Itbl.replace t.aliens (Pid.to_int src) al;
            t.alien_count <- t.alien_count + 1;
            accept_alien t dd al
          end)

(* A Reply packet for one of our blocked senders. *)
let handle_reply_pkt t (pkt : Packet.t) =
  match find_proc t pkt.Packet.dst_pid with
  | Some ({ d_state = Awaiting_reply { rsend = Some rs; buf; _ }; _ } as d)
    when rs.rs_pkt.Packet.seq = pkt.Packet.seq ->
      Packet.blit_msg pkt buf;
      (* ReplyWithSegment: deposit the appended segment at the dest
         pointer, provided this process granted write access there. *)
      let ptr = pkt.Packet.offset and len = pkt.Packet.data_len in
      if
        len > 0
        && granted d ~who:pkt.Packet.src_pid ~ptr ~len ~need_write:true
      then Packet.blit_data pkt d.d_mem ~pos:ptr ~len;
      finish_send t ~tail:true rs Ok
  | Some _ | None -> ()

let handle_reply_pending t (pkt : Packet.t) =
  match find_proc t pkt.Packet.dst_pid with
  | Some { d_state = Awaiting_reply { rsend = Some rs; _ }; _ }
    when rs.rs_pkt.Packet.seq = pkt.Packet.seq ->
      (* The receiver lives; be patient indefinitely. *)
      restart t (Send rs)
  | Some _ | None -> ()

let handle_nack t (pkt : Packet.t) =
  let st = status_of_code pkt.Packet.aux in
  (* A NACK may target a blocked sender or an in-flight data transfer. *)
  match find_proc t pkt.Packet.dst_pid with
  | Some { d_state = Moving mo; _ } when mo.mo_seq = pkt.Packet.seq ->
      move_finish t mo st
  | Some { d_state = Awaiting_reply { rsend = Some rs; _ }; _ }
    when rs.rs_pkt.Packet.seq = pkt.Packet.seq ->
      finish_send t ~tail:true rs st
  | Some _ | None -> ()

(* Place MoveTo fragment [pkt] in its receiver's [train].  The fragment
   that completes the train is acked, and so is each one (or probe) that
   arrives after while the receiver still waits. *)
let take_mt t train (pkt : Packet.t) =
  if not (complete train) then ignore (take t train pkt ~total:0 ~aux:0 : bool);
  if complete train then
    send_pkt t ~dst_host:(Pid.host pkt.Packet.src_pid)
      (Packet.make ~op:Packet.Data_ack ~src_pid:pkt.Packet.dst_pid
         ~dst_pid:pkt.Packet.src_pid ~seq:pkt.Packet.seq ())

(* A MoveTo train's name: its mover's host and seq, which the wire
   carries in 32 bits. *)
let mt_key ~mover ~seq = (Pid.host mover lsl 32) lor seq

(* Incoming MoveTo fragment.  Its train lives in the grant of the
   receiver's reply wait, so it ends with the wait: a fragment that finds
   no such wait on its mover is refused.  A host's sequence numbers only
   grow, and survive its crash, so against the last train the receiver
   took in ([d_mt_last]) a newer seq from that host starts a fresh train,
   and an older one, or the same one once its wait has ended, is a stale
   straggler, even in a later wait on the same mover.  The grant is fixed
   for the life of the wait, so a fragment of the held train must only
   match its shape. *)
let handle_data_mt t (pkt : Packet.t) =
  let mover = pkt.Packet.src_pid in
  match find_proc t pkt.Packet.dst_pid with
  | None -> refuse t pkt Nonexistent
  | Some ({ d_state = Awaiting_reply { peer; grant; rsend; _ }; _ } as dd)
    when Pid.equal peer mover -> (
      (* Data arriving from the process we are send-blocked on is proof of
         life: a long MoveTo into our space must not trip our own Send
         retransmission (the transfer can far outlast T). *)
      (match rsend with Some rs -> restart t (Send rs) | None -> ());
      let key = mt_key ~mover ~seq:pkt.Packet.seq in
      let ptr = pkt.Packet.aux and total = pkt.Packet.total in
      match grant with
      | Some { g_in = Some (In r as train); _ } when key = dd.d_mt_last ->
          if r.ptr = ptr && r.total = total then take_mt t train pkt
          else refuse t pkt No_permission
      | Some _ when key <= dd.d_mt_last && key lsr 32 = dd.d_mt_last lsr 32 ->
          t.s_dups <- t.s_dups + 1
      | Some g
        when grant_covers g ~ptr ~len:total ~need_write:true
             && Mem.valid dd.d_mem ~pos:ptr ~len:total ->
          let train = train_in ~mem:dd.d_mem ~ptr ~total in
          g.g_in <- Some train;
          dd.d_mt_last <- key;
          take_mt t train pkt
      | Some _ | None -> refuse t pkt No_permission)
  | Some _ -> refuse t pkt No_permission

(* Incoming MoveFrom data fragment at the requester: fresh data is proof
   of life, and the one at offset 0 ends the request's round trip. *)
let handle_data_mf t (pkt : Packet.t) =
  match find_proc t pkt.Packet.dst_pid with
  | Some { d_state = Moving ({ mo_train = In r; mo_retx = rx; _ } as mo); _ }
    when mo.mo_seq = pkt.Packet.seq ->
      if take t mo.mo_train pkt ~total:r.total ~aux:mo.mo_peer_ptr then begin
        if pkt.Packet.offset = 0 && rx.rx_since >= 0 then settle t rx Ok;
        alive rx;
        if r.expected >= r.total then move_finish t mo Ok else arm t (Move mo)
      end
  | Some _ | None -> ()

let handle_data_ack t (pkt : Packet.t) =
  match find_proc t pkt.Packet.dst_pid with
  | Some { d_state = Moving ({ mo_train = Out _; _ } as mo); _ }
    when mo.mo_seq = pkt.Packet.seq ->
      move_finish t mo Ok
  | Some _ | None -> ()

(* A NAK against a train we source: restart the stream from the offset
   the receiver reports.  A MoveTo's NAK is proof of life from its
   receiver; a MoveFrom's carries the transfer shape (base/total), so the
   source keeps no transfer state. *)
let handle_data_nak t (pkt : Packet.t) =
  let from = pkt.Packet.offset in
  match find_proc t pkt.Packet.dst_pid with
  | Some { d_state = Moving ({ mo_train = Out { ptr; total }; _ } as mo); _ }
    when mo.mo_seq = pkt.Packet.seq ->
      alive mo.mo_retx;
      stream_to t mo ~ptr ~total ~from
  | Some sd ->
      (* Only a train the process still sources restarts: a stray NAK
         must not supersede the train of a mover. *)
      let requester = pkt.Packet.src_pid
      and ptr = pkt.Packet.aux
      and total = pkt.Packet.total in
      if granted sd ~who:requester ~ptr ~len:total ~need_write:false then
        stream_from t sd ~requester ~seq:pkt.Packet.seq ~ptr ~total ~from
  | None -> ()

let handle_move_from_req t (pkt : Packet.t) =
  let requester = pkt.Packet.src_pid in
  match find_proc t pkt.Packet.dst_pid with
  | None -> refuse t pkt Nonexistent
  | Some sd ->
      let ptr = pkt.Packet.aux and len = pkt.Packet.total in
      if not (granted sd ~who:requester ~ptr ~len ~need_write:false) then
        refuse t pkt No_permission
      else
        stream_from t sd ~requester ~seq:pkt.Packet.seq ~ptr ~total:len
          ~from:pkt.Packet.offset

(* A forward notice: our blocked sender's message moved to a new server;
   retarget retransmissions and the segment grant (Thoth's Forward). *)
let handle_fwd_notice t (pkt : Packet.t) =
  match find_proc t pkt.Packet.dst_pid with
  | Some { d_state = Awaiting_reply ({ rsend = Some rs; _ } as w); _ }
    when rs.rs_pkt.Packet.seq = pkt.Packet.seq ->
      let new_pid = Pid.of_int pkt.Packet.aux in
      rs.rs_pkt <- Packet.retarget rs.rs_pkt ~dst_pid:new_pid;
      rs.rs_retx.rx_dst <- Pid.host new_pid;
      restart t (Send rs);
      w.peer <- new_pid;
      (* The old peer's train ends with its part in the wait. *)
      (match w.grant with Some g -> g.g_in <- None | None -> ())
  | Some _ | None -> ()

(* Registry packets. *)
let handle_getpid_req t (pkt : Packet.t) =
  let lid = pkt.Packet.aux in
  match Itbl.find_opt t.registry lid with
  | Some { re_pid; re_scope = Remote | Any } ->
      send_pkt t ~dst_host:(Pid.host pkt.Packet.src_pid)
        (Packet.make ~op:Packet.Getpid_reply ~src_pid:re_pid
           ~dst_pid:pkt.Packet.src_pid ~seq:pkt.Packet.seq ~aux:lid
           ~offset:(Pid.to_int re_pid) ())
  | Some { re_scope = Local; _ } | None -> ()

let handle_getpid_reply t (pkt : Packet.t) =
  let lid = pkt.Packet.aux in
  let found = Pid.of_int pkt.Packet.offset in
  Itbl.replace t.getpid_cache lid found;
  match Itbl.find_opt t.getpid_waits lid with
  | None -> ()
  | Some gw ->
      (* First-try replies sample the broadcast round trip; the answering
         host's own estimator is credited with the same sample, so a later
         direct exchange starts informed. *)
      let sample_ns = karn_sample t gw.gw_retx in
      Rto.note_success t.rto ~dst:gw.gw_retx.rx_dst ~sample_ns;
      if not (Pid.is_nil pkt.Packet.src_pid) then
        Rto.note_success t.rto ~dst:(Pid.host pkt.Packet.src_pid) ~sample_ns;
      getpid_finish t gw (Some found)

(* Main receive dispatch, invoked by the NIC after the receive-side CPU
   charge for the packet itself. *)
let handle_frame t (frame : Vnet.Frame.t) =
  if t.down then ()
    (* a crashed host hears nothing: frames in flight towards it when the
       power went out fall on the floor *)
  else begin
    let payload = frame.Vnet.Frame.payload in
    let ip = t.cfg.ip_header_mode in
    let len = Bytes.length payload - if ip then ip_pad else 0 in
    let extra =
      (if ip then (model t).Vhw.Cost_model.ip_header_extra_ns else 0)
      + if t.cfg.process_server_mode then relay_cost t len else 0
    in
    match
      if ip then Packet.of_bytes ~off:ip_pad payload
      else Packet.of_bytes payload
    with
    | Error e ->
        if Vsim.Trace.tracing t.eng then
          Vsim.Trace.event t.eng
            (Vsim.Event.Packet_drop
               {
                 host = t.khost;
                 reason = "decode: " ^ e;
                 bytes = len;
               })
    | Ok pkt ->
        t.s_rx <- t.s_rx + 1;
        (* 10 Mb style host mapping is learned from traffic. *)
        if t.addressing = Mapped && not (Pid.is_nil pkt.Packet.src_pid) then
          Itbl.replace t.host_map
            (Pid.host pkt.Packet.src_pid)
            frame.Vnet.Frame.src;
        if
          Pid.host pkt.Packet.dst_pid <> t.khost
          && pkt.Packet.op <> Packet.Getpid_req
        then
          (* Broadcast-fallback traffic meant for another host. *)
          ()
        else begin
          let m = model t in
          let dispatch () =
            if t.down then ()
              (* the interrupt-level charge for this packet was still
                 pending when the host crashed *)
            else begin
            if Vsim.Trace.tracing t.eng then
              Vsim.Trace.event t.eng
                (Vsim.Event.Packet_rx
                   {
                     host = t.khost;
                     op = Packet.op_to_string pkt.Packet.op;
                     src = Pid.to_int pkt.Packet.src_pid;
                     dst = Pid.to_int pkt.Packet.dst_pid;
                     seq = pkt.Packet.seq;
                     bytes = len;
                   });
            match pkt.Packet.op with
            | Packet.Send -> handle_send_pkt t pkt
            | Packet.Reply -> handle_reply_pkt t pkt
            | Packet.Reply_pending -> handle_reply_pending t pkt
            | Packet.Nack -> handle_nack t pkt
            | Packet.Data_mt -> handle_data_mt t pkt
            | Packet.Data_mf -> handle_data_mf t pkt
            | Packet.Data_ack -> handle_data_ack t pkt
            | Packet.Data_nak -> handle_data_nak t pkt
            | Packet.Move_from_req -> handle_move_from_req t pkt
            | Packet.Getpid_req -> handle_getpid_req t pkt
            | Packet.Getpid_reply -> handle_getpid_reply t pkt
            | Packet.Fwd_notice -> handle_fwd_notice t pkt
            end
          in
          (* Data fragments are handled at interrupt level with no extra
             kernel-op charge (the NIC copy already placed the bytes);
             control packets pay the remote-operation processing cost.
             The NIC calls this handler as its last call, so the charge
             runs in place when it is provably the next event. *)
          match pkt.Packet.op with
          | Packet.Data_mt | Packet.Data_mf ->
              Vhw.Cpu.charge_tail t.kcpu extra dispatch
          | Packet.Send | Packet.Reply | Packet.Reply_pending | Packet.Nack
          | Packet.Data_ack | Packet.Data_nak | Packet.Move_from_req
          | Packet.Getpid_req | Packet.Getpid_reply | Packet.Fwd_notice ->
              Vhw.Cpu.charge_tail t.kcpu
                (extra + m.Vhw.Cost_model.remote_op_extra_ns)
                dispatch
        end
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let make_kernel eng ~cpu ~nic ~host ~config ~addressing =
  if host < 0 || host > 0xFFFF then invalid_arg "Kernel.create: bad host id";
  (match addressing with
  | Direct ->
      if host <> Vnet.Nic.addr nic || host > 0xFF then
        invalid_arg
          "Kernel.create: direct addressing requires host = station address"
  | Mapped -> ());
  let t =
    {
      eng;
      kcpu = cpu;
      nic;
      khost = host;
      cfg = config;
      addressing;
      host_map = Itbl.create 16;
      procs = Itbl.create 64;
      fibers = Itbl.create 64;
      aliens = Itbl.create 64;
      alien_count = 0;
      registry = Itbl.create 16;
      getpid_cache = Itbl.create 16;
      getpid_waits = Itbl.create 16;
      rto =
        Rto.create eng ~host ~model:(Vhw.Cpu.model cpu) ~mode:config.rto_mode
          ~fixed_ns:config.retransmit_timeout_ns;
      kfibers = Itbl.create 64;
      down = false;
      reply_sent = ignore;
      restart_hooks = [];
      next_local_id = 0;
      next_seq = 0;
      s_tx = 0;
      s_rx = 0;
      s_retrans = 0;
      s_dups = 0;
      s_rpend = 0;
      s_nacks = 0;
      s_naks = 0;
      s_aliens = 0;
      s_pool_full = 0;
      s_reclaims = 0;
      s_send_local = 0;
      s_send_remote = 0;
      s_move_local = 0;
      s_move_remote = 0;
    }
  in
  t.reply_sent <-
    (fun () -> charge_async t (model t).Vhw.Cost_model.server_bookkeep_ns);
  Vnet.Nic.set_receiver nic ~ethertype:Vnet.Frame.ethertype_kernel
    (handle_frame t);
  t

let create eng ~cpu ~nic ~host ?(config = default_config) () =
  make_kernel eng ~cpu ~nic ~host ~config ~addressing:Direct

let create_mapped eng ~cpu ~nic ~host ?(config = default_config) () =
  make_kernel eng ~cpu ~nic ~host ~config ~addressing:Mapped

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)

let spawn t ?(name = "process") ?mem_size body =
  if t.down then invalid_arg "Kernel.spawn: host is down";
  t.next_local_id <- t.next_local_id + 1;
  if t.next_local_id > 0xFFFF then failwith "Kernel.spawn: out of local ids";
  let pid = Pid.make ~host:t.khost ~local:t.next_local_id in
  let mem_size = Option.value mem_size ~default:default_mem_size in
  let d =
    {
      d_pid = pid;
      d_name = name;
      d_mem = Mem.create ~size:mem_size;
      d_queue = Queue.create ();
      d_state = Ready;
      d_train_gen = 0;
      d_mt_last = -1;
    }
  in
  Itbl.replace t.procs (Pid.local pid) d;
  let p =
    Vsim.Proc.spawn t.eng ~name (fun () ->
        let self = Vsim.Engine.current t.eng in
        Itbl.replace t.fibers self d;
        Fun.protect
          ~finally:(fun () ->
            Itbl.remove t.fibers self;
            Itbl.remove t.kfibers self)
          (fun () -> body pid))
  in
  Itbl.replace t.kfibers (Vsim.Proc.id p) p;
  pid

(* Stop the timer of [d]'s remote exchange, if it waits in one. *)
let stop_exchange t (d : desc) =
  match d.d_state with
  | Awaiting_reply { rsend = Some rs; _ } -> stop t rs.rs_retx
  | Moving mo -> stop t mo.mo_retx
  | Awaiting_reply { rsend = None; _ } | Ready | Receiving _ | Dead -> ()

let destroy t pid =
  match find_proc t pid with
  | None -> ()
  | Some d ->
      (* Its own remote exchanges die with it, unresumed: nothing would
         deliver their answers, and their retries would only wear down
         the failure detector's view of live peers. *)
      stop_exchange t d;
      d.d_state <- Dead;
      Itbl.remove t.procs (Pid.local pid);
      (* Fail everyone who was talking to it. *)
      Queue.iter
        (fun entry ->
          if entry.q_local then (
            match
              Itbl.find_opt t.procs (Pid.local entry.q_src)
            with
            | Some sender when awaiting_reply sender.d_state pid ->
                wake_sender t ~tail:false ~ns:0 sender Nonexistent
            | Some _ | None -> ())
          else
            match Itbl.find_opt t.aliens (Pid.to_int entry.q_src) with
            | Some al when al.al_seq = entry.q_seq ->
                remove_alien t al;
                send_nack t ~dst_host:(Pid.host entry.q_src) ~src_pid:pid
                  ~dst_pid:entry.q_src ~seq:entry.q_seq Nonexistent
            | Some _ | None -> ())
        d.d_queue;
      Queue.clear d.d_queue;
      (* Fail ReceiveSpecific waiters blocked on the destroyed process.
         They resume in [procs]'s walk order, which [Itbl] keeps equal
         to a polymorphic [Hashtbl]'s. *)
      Itbl.iter
        (fun _ (w : desc) ->
          match w.d_state with
          | Receiving { from = Some from; k; _ } when Pid.equal from pid ->
              w.d_state <- Ready;
              charge_k t 0 (fun () -> k (Pid.nil, 0))
          | Receiving _ | Ready | Awaiting_reply _ | Moving _ | Dead -> ())
        t.procs

let memory t pid =
  match find_proc t pid with
  | Some d -> d.d_mem
  | None -> Fmt.invalid_arg "Kernel.memory: no process %a" Pid.pp pid

let my_memory t = (current t).d_mem
let alive t pid = find_proc t pid <> None

let process_name t pid =
  match find_proc t pid with Some d -> Some d.d_name | None -> None

(* ------------------------------------------------------------------ *)
(* Host crash and restart                                              *)

(* Power loss: every process fiber is killed (parked continuations are
   abandoned, wake-ups already registered elsewhere become no-ops), every
   protocol timer is cancelled, and all volatile kernel state vanishes.
   Nothing is transmitted — a dying host sends no NACKs, unlike [destroy].
   The local-id and sequence counters deliberately survive: pids of
   pre-crash incarnations stay dead forever, so a stale client addressing
   an old pid after restart gets a Nonexistent NACK instead of reaching an
   unrelated new process. *)
let crash t =
  if not t.down then begin
    t.down <- true;
    (* Killing a fiber wakes its joiners, in [kfibers]'s walk order, which
       [Itbl] keeps equal to a polymorphic [Hashtbl]'s. *)
    Itbl.iter (fun _ p -> Vsim.Proc.kill p) t.kfibers;
    Itbl.reset t.kfibers;
    Itbl.iter
      (fun _ d ->
        stop_exchange t d;
        d.d_state <- Dead)
      t.procs;
    Itbl.iter (fun _ gw -> stop t gw.gw_retx) t.getpid_waits;
    Itbl.reset t.procs;
    Itbl.reset t.fibers;
    Itbl.reset t.aliens;
    t.alien_count <- 0;
    Itbl.reset t.registry;
    Itbl.reset t.getpid_cache;
    Itbl.reset t.getpid_waits;
    Rto.reset t.rto;
    Itbl.reset t.host_map
  end

let restart t =
  if t.down then begin
    t.down <- false;
    List.iter (fun hook -> hook ()) (List.rev t.restart_hooks)
  end

let is_down t = t.down
let on_restart t hook = t.restart_hooks <- hook :: t.restart_hooks
let forget_pid t ~logical_id = Itbl.remove t.getpid_cache logical_id

(* ------------------------------------------------------------------ *)
(* IPC primitives                                                      *)

let send t msg dst =
  let d = current t in
  let m = model t in
  let remote = Pid.host dst <> t.khost in
  (* The sequence number is allocated before the first CPU charge so the
     Send event — emitted at the caller's own timestamp, before any
     simulated work — can carry it.  Sequence numbers only need to be
     unique per host, so allocating here rather than mid-operation is
     behaviour-preserving. *)
  let seq = if remote then next_seq t else 0 in
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Send
         {
           host = t.khost;
           src = Pid.to_int d.d_pid;
           dst = Pid.to_int dst;
           seq;
           remote;
         });
  let seg_cost =
    if Msg.has_segment msg then m.Vhw.Cost_model.segment_handling_ns else 0
  in
  charge t (m.Vhw.Cost_model.send_op_ns + seg_cost);
  if not remote then begin
    t.s_send_local <- t.s_send_local + 1;
    match find_proc t dst with
    | None -> Nonexistent
    | Some dd ->
        enqueue_msg t dd
          { q_src = d.d_pid; q_seq = 0; q_msg = Msg.copy msg; q_local = true };
        Vsim.Proc.suspend_tail (fun k ->
            d.d_state <- await ~peer:dst msg k None;
            try_deliver t ~tail:true dd)
  end
  else begin
    t.s_send_remote <- t.s_send_remote + 1;
    charge t m.Vhw.Cost_model.remote_op_extra_ns;
    Vsim.Proc.suspend_tail (fun k ->
        let rs = new_rsend d msg ~dst ~seq ~since:(Vsim.Engine.now t.eng) in
        d.d_state <- await ~peer:dst msg k (Some rs);
        launch_send t ~tail:true rs)
  end

let receive_gen ?from t msg ~seg =
  let d = current t in
  let m = model t in
  charge t m.Vhw.Cost_model.receive_op_ns;
  match pop_valid ?from t d with
  | Some entry ->
      (* Message already queued: no blocking, no context switch. *)
      Msg.blit ~src:entry.q_msg ~dst:msg;
      let count = deliver_segment t ~entry ~seg ~recv:d in
      mark_received t entry;
      if Vsim.Trace.tracing t.eng then
        Vsim.Trace.event t.eng
          (Vsim.Event.Receive
             {
               host = t.khost;
               pid = Pid.to_int d.d_pid;
               src = Pid.to_int entry.q_src;
               seq = entry.q_seq;
               bytes = count;
             });
      (entry.q_src, count)
  | None ->
      Vsim.Proc.suspend_tail (fun k ->
          d.d_state <- Receiving { msg; seg; from; k })

let receive t msg = fst (receive_gen t msg ~seg:None)

let receive_with_segment t msg ~segptr ~segsize =
  receive_gen t msg ~seg:(Some (segptr, segsize))

let receive_specific t msg from =
  (* Fail fast if the awaited process is local and already dead; for
     remote pids there is nothing to check without traffic. *)
  if Pid.host from = t.khost && find_proc t from = None then begin
    charge t (model t).Vhw.Cost_model.receive_op_ns;
    Nonexistent
  end
  else begin
    let src, _count = receive_gen ~from t msg ~seg:None in
    if Pid.is_nil src then Nonexistent else Ok
  end

(* Send [pkt], process [d]'s reply to alien [al]: it acknowledges the
   remote Send, so the alien caches it for retransmitted Sends. *)
let reply_remote t (d : desc) (al : alien) pkt =
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Reply
         {
           host = t.khost;
           src = Pid.to_int d.d_pid;
           dst = Pid.to_int pkt.Packet.dst_pid;
           seq = al.al_seq;
           remote = true;
         });
  al.al_state <- A_replied { reply = pkt; at = Vsim.Engine.now t.eng };
  (* The alien/timer upkeep of the reply side is accounted by the
     asynchronous server bookkeeping charge below. *)
  send_pkt_gen t ~from:In_fiber
    ~dst_addr:(addr_for t ~dst_host:(Pid.host pkt.Packet.dst_pid))
    pkt t.reply_sent;
  Ok

let reply_gen t msg dst ~seg =
  let d = current t in
  let m = model t in
  let seg_cost =
    match seg with Some _ -> m.Vhw.Cost_model.segment_handling_ns | None -> 0
  in
  charge t (m.Vhw.Cost_model.reply_op_ns + seg_cost);
  if Pid.host dst = t.khost then begin
    match find_proc t dst with
    | Some ({ d_state = Awaiting_reply { peer; buf; _ }; _ } as dd)
      when Pid.equal peer d.d_pid -> (
        let seg_status =
          match seg with
          | None -> Ok
          | Some (destptr, segptr, segsize) ->
              if not (Mem.valid d.d_mem ~pos:segptr ~len:segsize) then
                Bad_address
              else begin
                if
                  not
                    (granted dd ~who:d.d_pid ~ptr:destptr ~len:segsize
                       ~need_write:true)
                then No_permission
                else begin
                  charge t (segsize * m.Vhw.Cost_model.mem_copy_ns_per_byte);
                  Mem.transfer ~src:d.d_mem ~src_pos:segptr ~dst:dd.d_mem
                    ~dst_pos:destptr ~len:segsize;
                  Ok
                end
              end
        in
        match seg_status with
        | Ok ->
            if Vsim.Trace.tracing t.eng then
              Vsim.Trace.event t.eng
                (Vsim.Event.Reply
                   {
                     host = t.khost;
                     src = Pid.to_int d.d_pid;
                     dst = Pid.to_int dst;
                     seq = 0;
                     remote = false;
                   });
            Msg.blit ~src:msg ~dst:buf;
            wake_sender t ~tail:false ~ns:m.Vhw.Cost_model.context_switch_ns dd
              Ok;
            Ok
        | (Nonexistent | Bad_address | No_permission | Too_big | Retryable
          | Dead) as err ->
            err)
    | Some _ | None -> No_permission
  end
  else begin
    (* Reply to an alien: the reply packet is the acknowledgement. *)
    match Itbl.find t.aliens (Pid.to_int dst) with
    | al when Pid.equal al.al_dst d.d_pid && unanswered al -> (
        match seg with
        | Some (_, _, segsize) when segsize > max_packet_data -> Too_big
        | Some (_, segptr, segsize)
          when not (Mem.valid d.d_mem ~pos:segptr ~len:segsize) ->
            Bad_address
        | None ->
            reply_remote t d al
              (Packet.make ~op:Packet.Reply ~src_pid:d.d_pid ~dst_pid:dst
                 ~seq:al.al_seq ~msg ())
        | Some (destptr, segptr, segsize) ->
            reply_remote t d al
              (Packet.make ~op:Packet.Reply ~src_pid:d.d_pid ~dst_pid:dst
                 ~seq:al.al_seq ~offset:destptr ~msg
                 ~data:(d.d_mem, segptr, segsize) ()))
    | _ | (exception Not_found) -> No_permission
  end

let reply t msg dst = reply_gen t msg dst ~seg:None

let reply_with_segment t msg dst ~destptr ~segptr ~segsize =
  reply_gen t msg dst ~seg:(Some (destptr, segptr, segsize))

(* Thoth's Forward: hand a received message on to another server, leaving
   the original sender blocked on the new recipient.  The reply travels
   straight from the new server to the sender; this kernel drops out of
   the exchange entirely. *)
let forward t msg ~from_pid ~to_pid =
  let d = current t in
  let m = model t in
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Forward
         {
           host = t.khost;
           by = Pid.to_int d.d_pid;
           src = Pid.to_int from_pid;
           dst = Pid.to_int to_pid;
         });
  charge t m.Vhw.Cost_model.send_op_ns;
  if Pid.host from_pid = t.khost then begin
    (* The sender is local to this kernel. *)
    match find_proc t from_pid with
    | Some ({ d_state = Awaiting_reply w; _ } as fd)
      when Pid.equal w.peer d.d_pid ->
        w.peer <- to_pid;
        w.grant <- grant_of_msg msg;
        if Pid.host to_pid = t.khost then begin
          match find_proc t to_pid with
          | None ->
              wake_sender t ~tail:false ~ns:0 fd Nonexistent;
              Nonexistent
          | Some td ->
              enqueue_msg t td
                { q_src = from_pid; q_seq = 0; q_msg = Msg.copy msg;
                  q_local = true };
              try_deliver t ~tail:false td;
              Ok
        end
        else begin
          (* Re-launch the message as a remote Send on the sender's
             behalf; the sender now waits on the network path. *)
          charge t m.Vhw.Cost_model.remote_op_extra_ns;
          (* The exchange already spans a forward: never sample it. *)
          let rs =
            new_rsend fd msg ~dst:to_pid ~seq:(next_seq t) ~since:(-1)
          in
          w.rsend <- Some rs;
          launch_send t ~tail:false rs;
          Ok
        end
    | Some _ | None -> No_permission
  end
  else begin
    (* The sender is an alien: it sent from another workstation. *)
    match Itbl.find_opt t.aliens (Pid.to_int from_pid) with
    | Some al when Pid.equal al.al_dst d.d_pid && unanswered al ->
        if Pid.host to_pid = t.khost then begin
          (* New server is local: retarget the alien and requeue. *)
          match find_proc t to_pid with
          | None ->
              remove_alien t al;
              send_nack t ~dst_host:(Pid.host from_pid) ~src_pid:d.d_pid
                ~dst_pid:from_pid ~seq:al.al_seq Nonexistent;
              Nonexistent
          | Some td ->
              Msg.blit ~src:msg ~dst:al.al_msg;
              al.al_dst <- to_pid;
              al.al_state <- A_queued;
              enqueue_msg t td
                { q_src = from_pid; q_seq = al.al_seq; q_msg = al.al_msg;
                  q_local = false };
              (* The reply will come from [to_pid]: the sender's kernel
                 must retarget its retransmissions and segment grant or
                 it will drop the new server's reply segment. *)
              send_fwd_notice t ~by:d.d_pid ~sender:from_pid ~seq:al.al_seq
                ~to_pid;
              try_deliver t ~tail:false td;
              Ok
        end
        else begin
          (* Remote-to-remote: re-launch the Send with the original
             sender and sequence number so the new server's reply matches
             the sender's outstanding rsend, and notify the sender's
             kernel so its retransmissions and grants retarget. *)
          let seq = al.al_seq and pkt = al.al_pkt in
          charge t m.Vhw.Cost_model.remote_op_extra_ns;
          (* A new Send from the sender during the charge rebinds [al]
             to it; that exchange is not the one forwarded. *)
          if al.al_seq = seq then al.al_state <- A_forwarded to_pid;
          send_pkt t ~dst_host:(Pid.host to_pid)
            (Packet.retarget pkt ~msg ~dst_pid:to_pid);
          send_fwd_notice t ~by:d.d_pid ~sender:from_pid ~seq ~to_pid;
          charge_async t m.Vhw.Cost_model.send_bookkeep_ns;
          Ok
        end
    | Some _ | None -> No_permission
  end

(* ------------------------------------------------------------------ *)
(* Data transfer                                                       *)

(* MoveTo ([dir = To]) or MoveFrom ([From]) between the current
   process's space and [peer]'s granted segment: [count] bytes from [src]
   in the one to [dst] in the other.  A remote move blocks until its page
   train ends. *)
let move t dir ~peer ~dst ~src ~count =
  let d = current t in
  let m = model t in
  charge t m.Vhw.Cost_model.move_setup_ns;
  let ptr = match dir with To -> src | From -> dst in
  let peer_ptr = match dir with To -> dst | From -> src in
  if count < 0 || not (Mem.valid d.d_mem ~pos:ptr ~len:count) then Bad_address
  else begin
    let remote = Pid.host peer <> t.khost in
    if remote then t.s_move_remote <- t.s_move_remote + 1
    else t.s_move_local <- t.s_move_local + 1;
    let local_peer = if remote then None else find_proc t peer in
    let need_write = match dir with To -> true | From -> false in
    match local_peer with
    | None when not remote -> Nonexistent
    | Some pd
      when not (granted pd ~who:d.d_pid ~ptr:peer_ptr ~len:count ~need_write)
      ->
        No_permission
    | Some _ | None -> (
        (* A remote move's sequence number names its exchange; a local
           one has none. *)
        let seq = if remote then next_seq t else 0 in
        if Vsim.Trace.tracing t.eng then begin
          let me = Pid.to_int d.d_pid and them = Pid.to_int peer in
          Vsim.Trace.event t.eng
            (Vsim.Event.Move
               {
                 host = t.khost;
                 dir;
                 src = (match dir with To -> me | From -> them);
                 dst = (match dir with To -> them | From -> me);
                 seq;
                 bytes = count;
                 remote;
               })
        end;
        match local_peer with
        | Some pd ->
            charge t (count * m.Vhw.Cost_model.mem_copy_ns_per_byte);
            let src_mem = match dir with To -> d.d_mem | From -> pd.d_mem in
            let dst_mem = match dir with To -> pd.d_mem | From -> d.d_mem in
            Mem.transfer ~src:src_mem ~src_pos:src ~dst:dst_mem ~dst_pos:dst
              ~len:count;
            Ok
        | None ->
            charge t m.Vhw.Cost_model.remote_op_extra_ns;
            Vsim.Proc.suspend_tail (fun resume ->
                let now = Vsim.Engine.now t.eng in
                let mo =
                  {
                    mo_seq = seq;
                    mo_desc = d;
                    mo_peer = peer;
                    mo_peer_ptr = peer_ptr;
                    mo_train =
                      (match dir with
                      | To -> Out { ptr; total = count }
                      | From -> train_in ~mem:d.d_mem ~ptr ~total:count);
                    mo_retx =
                      new_retx ~dst:(Pid.host peer)
                        ~since:(match dir with To -> -1 | From -> now);
                    mo_done = resume;
                  }
                in
                d.d_state <- Moving mo;
                match dir with
                | To -> stream_to t mo ~ptr ~total:count ~from:0
                | From -> transmit t (Move mo)))
  end

let move_to t ~dst_pid ~dst ~src ~count =
  move t To ~peer:dst_pid ~dst ~src ~count

let move_from t ~src_pid ~dst ~src ~count =
  move t From ~peer:src_pid ~dst ~src ~count

(* ------------------------------------------------------------------ *)
(* Naming and time                                                     *)

let set_pid t ~logical_id pid scope =
  let (_ : desc) = current t in
  charge t (model t).Vhw.Cost_model.syscall_ns;
  Itbl.replace t.registry logical_id { re_pid = pid; re_scope = scope }

let get_pid t ~logical_id scope =
  let d = current t in
  charge t (model t).Vhw.Cost_model.syscall_ns;
  let local_entry visible =
    match Itbl.find_opt t.registry logical_id with
    | Some e when visible e.re_scope -> Some e.re_pid
    | Some _ | None -> None
  in
  match scope with
  | Local -> local_entry (fun s -> s = Local || s = Any)
  | Remote | Any -> (
      let first =
        match scope with
        | Any -> local_entry (fun _ -> true)
        | Remote | Local -> local_entry (fun s -> s = Remote || s = Any)
      in
      match first with
      | Some pid -> Some pid
      | None -> (
          match Itbl.find_opt t.getpid_cache logical_id with
          | Some pid -> Some pid
          | None ->
              Vsim.Proc.suspend (fun resume ->
                  match Itbl.find_opt t.getpid_waits logical_id with
                  | Some gw -> gw.gw_waiters <- resume :: gw.gw_waiters
                  | None ->
                      (* GetPid rides the shared retransmission timer,
                         keyed by its logical id: [1 + max_retries]
                         broadcasts in all. *)
                      let gw =
                        {
                          gw_lid = logical_id;
                          gw_me = d.d_pid;
                          gw_seq = next_seq t;
                          gw_retx =
                            new_retx ~dst:(getpid_dst ~logical_id)
                              ~since:(Vsim.Engine.now t.eng);
                          gw_waiters = [ resume ];
                        }
                      in
                      Itbl.replace t.getpid_waits logical_id gw;
                      transmit t (Getpid gw))))

let get_time t =
  let (_ : desc) = current t in
  charge t (model t).Vhw.Cost_model.syscall_ns;
  Vsim.Engine.now t.eng

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let stats t =
  {
    packets_sent = t.s_tx;
    packets_received = t.s_rx;
    retransmissions = t.s_retrans;
    timeouts_fired = Rto.timeouts t.rto;
    duplicates_filtered = t.s_dups;
    reply_pendings_sent = t.s_rpend;
    nonexistent_nacks_sent = t.s_nacks;
    gap_naks_sent = t.s_naks;
    aliens_created = t.s_aliens;
    alien_pool_full = t.s_pool_full;
    aliens_reclaimed = t.s_reclaims;
    hosts_suspected = Rto.suspects t.rto;
    sends_local = t.s_send_local;
    sends_remote = t.s_send_remote;
    moves_local = t.s_move_local;
    moves_remote = t.s_move_remote;
  }

(* Invariant probes for the protocol checker: a quiesced kernel must hold
   no live protocol state.  Replied/forwarded aliens are legitimately
   retained as cached replies until reclaim, so they are reported apart
   from live (unanswered) ones. *)
type table_counts = {
  aliens_live : int;
  aliens_replied : int;
  aliens_forwarded : int;
  mt_ins_incomplete : int;
  mt_ins_total : int;
  mt_outs_pending : int;
  mf_outs_pending : int;
  getpid_pending : int;
  sends_blocked : int;
}

let table_counts t =
  let aliens_live = ref 0
  and aliens_replied = ref 0
  and aliens_forwarded = ref 0 in
  Itbl.iter
    (fun _ al ->
      match al.al_state with
      | A_queued | A_received -> incr aliens_live
      | A_replied _ -> incr aliens_replied
      | A_forwarded _ -> incr aliens_forwarded)
    t.aliens;
  let mt_ins_incomplete = ref 0 and mt_ins_total = ref 0 in
  let mt_outs_pending = ref 0 and mf_outs_pending = ref 0 in
  let sends_blocked = ref 0 in
  Itbl.iter
    (fun _ d ->
      match d.d_state with
      | Awaiting_reply { grant; rsend; _ } -> (
          (match rsend with Some _ -> incr sends_blocked | None -> ());
          match grant with
          | Some { g_in = Some train; _ } ->
              incr mt_ins_total;
              if not (complete train) then incr mt_ins_incomplete
          | Some { g_in = None; _ } | None -> ())
      | Moving { mo_train = Out _; _ } -> incr mt_outs_pending
      | Moving { mo_train = In _; _ } -> incr mf_outs_pending
      | Ready | Receiving _ | Dead -> ())
    t.procs;
  {
    aliens_live = !aliens_live;
    aliens_replied = !aliens_replied;
    aliens_forwarded = !aliens_forwarded;
    mt_ins_incomplete = !mt_ins_incomplete;
    mt_ins_total = !mt_ins_total;
    mt_outs_pending = !mt_outs_pending;
    mf_outs_pending = !mf_outs_pending;
    getpid_pending = Itbl.length t.getpid_waits;
    sends_blocked = !sends_blocked;
  }

let pp_table_counts fmt c =
  Format.fprintf fmt
    "aliens(live/replied/fwd)=%d/%d/%d mt_ins(incomplete/total)=%d/%d \
     mt_outs=%d mf_outs=%d getpid=%d sends-blocked=%d"
    c.aliens_live c.aliens_replied c.aliens_forwarded c.mt_ins_incomplete
    c.mt_ins_total c.mt_outs_pending c.mf_outs_pending c.getpid_pending
    c.sends_blocked

let pp_stats fmt s =
  Format.fprintf fmt
    "tx=%d rx=%d retrans=%d timeouts=%d dups=%d rpend=%d \
     nonexistent-nacks=%d gap-naks=%d aliens=%d pool-full=%d reclaimed=%d \
     suspected=%d sends(l/r)=%d/%d moves(l/r)=%d/%d"
    s.packets_sent s.packets_received s.retransmissions s.timeouts_fired
    s.duplicates_filtered s.reply_pendings_sent s.nonexistent_nacks_sent
    s.gap_naks_sent s.aliens_created s.alien_pool_full s.aliens_reclaimed
    s.hosts_suspected s.sends_local s.sends_remote s.moves_local
    s.moves_remote
