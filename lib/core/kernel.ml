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
  max_packet_data : int;
  max_seg_append : int;
  rto_mode : rto_mode;
  rto_min_ns : int;
  rto_max_ns : int;
  rto_ns_per_byte : int;
  suspect_threshold : int;
  default_mem_size : int;
  ip_header_mode : bool;
  process_server_mode : bool;
}

let default_config =
  {
    retransmit_timeout_ns = Vsim.Time.ms 200;
    max_retries = 5;
    max_aliens = 64;
    max_packet_data = 1024;
    max_seg_append = 512;
    rto_mode = Fixed;
    rto_min_ns = Vsim.Time.ms 1;
    rto_max_ns = Vsim.Time.ms 800;
    rto_ns_per_byte = 3_000;
    suspect_threshold = 2;
    default_mem_size = 256 * 1024;
    ip_header_mode = false;
    process_server_mode = false;
  }

type grant = {
  granted_to : Pid.t;
  g_access : Msg.access;
  g_ptr : int;
  g_len : int;
}

type pstate = Ready | Receive_blocked | Awaiting_reply of Pid.t | Dead

(* Tests on [pstate] match rather than use [=], which on a type with a
   non-constant constructor is a C call to polymorphic compare. *)
let awaiting_reply state who =
  match state with
  | Awaiting_reply p -> Pid.equal p who
  | Ready | Receive_blocked | Dead -> false

type queued = {
  q_src : Pid.t;
  q_seq : int;  (** alien seq for remote entries; 0 for local *)
  q_msg : Msg.t;
  q_local : bool;
}

type receive_wait = {
  rw_msg : Msg.t;
  rw_seg : (int * int) option;
  rw_from : Pid.t option;  (** ReceiveSpecific filter *)
  rw_k : Pid.t * int -> unit;
}

(* The retransmission timer of one remote exchange (Section 3.2): every
   remote Send, MoveTo, MoveFrom and GetPid embeds one.  Each arm cancels
   the previous handle and every end of the exchange cancels the last, so
   a timer that fires always belongs to a live exchange. *)
type retx = {
  mutable rx_dst : int;
      (** estimator key: the destination host, or GetPid's
          pseudo-destination *)
  mutable rx_tries : int;
      (** timer expiries since the exchange began or last showed proof of
          life *)
  mutable rx_timer : Vsim.Engine.handle;
}

(* Remote-send state of a locally blocked sender. *)
type rsend = {
  rs_desc : desc;
  mutable rs_pkt : Packet.t;
  mutable rs_since : Vsim.Time.t;
      (** when the round-trip clock started; [-1] once anything disturbed
          the exchange (reply-pending, forward, proof-of-life) — Karn's
          rule: such exchanges contribute no RTT sample *)
  rs_retx : retx;
}

and desc = {
  d_pid : Pid.t;
  mutable d_name : string;
  d_mem : Mem.t;
  d_queue : queued Queue.t;
  mutable d_state : pstate;
  mutable d_grant : grant option;
  mutable d_on_reply : (status -> unit) option;
  mutable d_reply_buf : Msg.t option;
  mutable d_recv : receive_wait option;
  mutable d_rsend : rsend option;
  mutable d_mf_gen : int;
      (** invalidates superseded MoveFrom streams sourced from this
          process — a retransmitted request or a NAK starts a fresh
          stream, and without supersession the old ones keep running and
          flood the requester with out-of-order fragments *)
}

(* Alien process descriptors: surrogates for remote senders (Section 3.2).
   They hold the message, filter retransmissions and cache the reply. *)
type alien_state = A_queued | A_received | A_replied | A_forwarded

type alien = {
  al_src : Pid.t;
  al_dst : Pid.t;
  al_seq : int;
  mutable al_state : alien_state;
  mutable al_reply : Packet.t option;
  mutable al_fwd : Pid.t;  (** where the message went when forwarded *)
  al_msg : Msg.t;
  al_data : Bytes.t;  (** piggybacked segment prefix *)
  mutable al_replied_at : Vsim.Time.t;
      (** when the cached reply was last (re)sent; the reclaim grace
          period counts from here *)
}

(* Sender side of an in-flight MoveTo. *)
type mt_out = {
  mto_seq : int;
  mto_src : Pid.t;  (** the mover *)
  mto_dst : Pid.t;
  mto_src_ptr : int;
  mto_dst_ptr : int;
  mto_total : int;
  mto_mem : Mem.t;
  mutable mto_gen : int;  (** invalidates superseded streaming chains *)
  mto_retx : retx;
  mutable mto_wait_since : Vsim.Time.t;
      (** when the full train was last on the wire and we began waiting
          for the Data_ack; [-1] until then *)
  mto_done : status -> unit;
}

(* Receiver side of an in-flight MoveTo, keyed by (src host, seq). *)
type mt_in = {
  mti_src : Pid.t;
  mti_dst : Pid.t;
  mti_dst_ptr : int;
  mti_total : int;
  mti_born : Vsim.Time.t;
  mutable mti_expected : int;
  mutable mti_complete : bool;
}

(* Requester side of an in-flight MoveFrom. *)
type mf_out = {
  mfo_seq : int;
  mfo_me : Pid.t;  (** the requesting process *)
  mfo_src : Pid.t;  (** remote process we read from *)
  mfo_src_ptr : int;
  mfo_dst_ptr : int;
  mfo_total : int;
  mfo_mem : Mem.t;
  mutable mfo_expected : int;
  mutable mfo_nak_at : int;
      (** expected offset the last NAK reported, [-1] if none is
          outstanding — stale in-flight fragments keep arriving after a
          gap is detected, and NAKing each of them spawns one redundant
          restream per NAK *)
  mfo_retx : retx;
  mutable mfo_req_at : Vsim.Time.t;  (** when the last request went out *)
  mfo_done : status -> unit;
}

type registry_entry = { re_pid : Pid.t; re_scope : scope }

type getpid_wait = {
  gw_lid : int;  (** the logical id being resolved *)
  gw_me : Pid.t;  (** the process that first asked *)
  mutable gw_seq : int;  (** of the latest broadcast *)
  gw_retx : retx;
  gw_born : Vsim.Time.t;
  mutable gw_waiters : (Pid.t option -> unit) list;
}

(* A remote exchange, as its retransmission timer sees it; the
   constructor is the exchange's kind. *)
type exchange =
  | Send of rsend
  | Move_to of mt_out
  | Move_from of mf_out
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
  mt_outs : mt_out Itbl.t;
  mt_ins : mt_in Itbl.t;  (** keyed by {!mt_in_key} *)
  mf_outs : mf_out Itbl.t;
  registry : registry_entry Itbl.t;
  getpid_cache : Pid.t Itbl.t;
  getpid_waits : getpid_wait Itbl.t;
  rto : Rto.t;  (** per-destination timeouts and failure detector *)
  kfibers : Vsim.Proc.t Itbl.t;
      (** fiber id -> fiber, so a crash can kill every process *)
  mutable down : bool;  (** crashed and not yet restarted *)
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

let current t =
  let fiber = Vsim.Proc.self () in
  match Itbl.find t.fibers (Vsim.Proc.id fiber) with
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

let send_pkt_gen t ?(pre_cost = 0) ~dst_addr pkt k =
  if t.down then ()
    (* a crashed host transmits nothing; the continuation belongs to
       protocol machinery that died with it *)
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
  Vnet.Nic.send_k t.nic ~pre_cost ~dst:dst_addr
    ~ethertype:Vnet.Frame.ethertype_kernel payload k
  end

let send_pkt_k t ?pre_cost ~dst_host pkt k =
  send_pkt_gen t ?pre_cost ~dst_addr:(addr_for t ~dst_host) pkt k

let send_pkt t ?pre_cost ~dst_host pkt =
  send_pkt_k t ?pre_cost ~dst_host pkt ignore

(* ------------------------------------------------------------------ *)
(* Grants                                                              *)

let grant_covers (g : grant) ~who ~ptr ~len ~need_write =
  Pid.equal g.granted_to who
  && (match g.g_access, need_write with
     | (Msg.Write_only | Msg.Read_write), true -> true
     | (Msg.Read_only | Msg.Read_write), false -> true
     | Msg.Read_only, true | Msg.Write_only, false -> false)
  && ptr >= g.g_ptr
  && ptr + len <= g.g_ptr + g.g_len

(* May [who] move [len] bytes at [ptr] of [d]'s space: [d] awaits [who]'s
   reply, granted it that access, and the range lies in its space. *)
let granted (d : desc) ~who ~ptr ~len ~need_write =
  awaiting_reply d.d_state who
  && (match d.d_grant with
     | Some g -> grant_covers g ~who ~ptr ~len ~need_write
     | None -> false)
  && Mem.valid d.d_mem ~pos:ptr ~len

let grant_of_msg msg ~granted_to =
  match Msg.segment msg with
  | None -> None
  | Some (g_access, g_ptr, g_len) ->
      Some { granted_to; g_access; g_ptr; g_len }

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
            let count = Int.min (Bytes.length al.al_data) segsize in
            let count =
              if Mem.valid recv.d_mem ~pos:segptr ~len:count then count else 0
            in
            if count > 0 then begin
              (* The NIC already paid the per-byte copy; placing the data in
                 its final location costs only the segment bookkeeping. *)
              charge_async t m.Vhw.Cost_model.segment_handling_ns;
              Mem.blit_in recv.d_mem ~pos:segptr al.al_data ~src_off:0
                ~len:count
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
    match Itbl.find_opt t.aliens (Pid.to_int entry.q_src) with
    | Some al -> al.al_seq = entry.q_seq && al.al_state = A_queued
    | None -> false

(* Pop the first valid entry, optionally only from a specific sender
   (ReceiveSpecific); dead entries are discarded, others retained in
   order. *)
let pop_valid ?from t (d : desc) =
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

let mark_received t (entry : queued) =
  if not entry.q_local then
    match Itbl.find_opt t.aliens (Pid.to_int entry.q_src) with
    | Some al -> al.al_state <- A_received
    | None -> ()

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
   switch and resume the fiber. *)
let try_deliver t (d : desc) =
  match d.d_recv with
  | None -> ()
  | Some rw -> (
      match pop_valid ?from:rw.rw_from t d with
      | None -> ()
      | Some entry ->
          d.d_recv <- None;
          d.d_state <- Ready;
          Msg.blit ~src:entry.q_msg ~dst:rw.rw_msg;
          let count = deliver_segment t ~entry ~seg:rw.rw_seg ~recv:d in
          mark_received t entry;
          charge_k t (model t).Vhw.Cost_model.context_switch_ns (fun () ->
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
              rw.rw_k (entry.q_src, count)))

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
  let older a b =
    a.al_replied_at < b.al_replied_at
    || (a.al_replied_at = b.al_replied_at
       && Pid.to_int a.al_src < Pid.to_int b.al_src)
  in
  let victim =
    Itbl.fold
      (fun _ al acc ->
        if al.al_state <> A_replied || now - al.al_replied_at < grace al
        then acc
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

let send_reply_pending t ~dst_host ~src_pid ~dst_pid ~seq =
  t.s_rpend <- t.s_rpend + 1;
  send_pkt t ~dst_host
    (Packet.make ~op:Packet.Reply_pending ~src_pid ~dst_pid ~seq ())

(* ------------------------------------------------------------------ *)
(* Ending remote exchanges                                             *)

let new_retx ~dst =
  { rx_dst = dst; rx_tries = 0; rx_timer = Vsim.Eventq.none }

let stop t rx = Vsim.Engine.cancel t.eng rx.rx_timer

(* The round trip since [since], if it is one (Karn): no timer expired
   since the clock started, and nothing else disturbed it ([since] >= 0). *)
let karn_sample t rx ~since =
  if rx.rx_tries = 0 && since >= 0 then Some (Vsim.Engine.now t.eng - since)
  else None

(* Feed the estimator as an exchange ends with [st]: a completed exchange
   may be a round-trip sample, any other answer proves the peer alive,
   and exhaustion statuses feed nothing — they must not reset the failure
   count they just raised. *)
let settle t rx st ~since =
  match st with
  | Retryable | Dead -> ()
  | Ok ->
      Rto.note_success t.rto ~dst:rx.rx_dst
        ~sample_ns:(karn_sample t rx ~since)
  | Nonexistent | Bad_address | No_permission | Too_big ->
      Rto.note_success t.rto ~dst:rx.rx_dst ~sample_ns:None

let finish_send t (rs : rsend) st =
  let d = rs.rs_desc in
  stop t rs.rs_retx;
  settle t rs.rs_retx st ~since:rs.rs_since;
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
  d.d_rsend <- None;
  d.d_state <- Ready;
  let k = d.d_on_reply in
  d.d_on_reply <- None;
  d.d_reply_buf <- None;
  let seq = rs.rs_pkt.Packet.seq in
  (* Send_done marks the instant the blocked sender resumes; spans use it
     as the close timestamp, so it must fire inside the context-switch
     continuation, at the same engine time [k st] runs. *)
  let note () =
    if Vsim.Trace.tracing t.eng then
      Vsim.Trace.event t.eng
        (Vsim.Event.Send_done
           {
             host = t.khost;
             pid = Pid.to_int d.d_pid;
             seq;
             status = status_to_string st;
           })
  in
  match k with
  | Some k ->
      charge_k t (model t).Vhw.Cost_model.context_switch_ns (fun () ->
          note ();
          k st)
  | None -> note ()

let mt_alive t (mto : mt_out) =
  match Itbl.find_opt t.mt_outs mto.mto_seq with
  | Some m -> m == mto
  | None -> false

let mf_alive t (mfo : mf_out) =
  match Itbl.find_opt t.mf_outs mfo.mfo_seq with
  | Some m -> m == mfo
  | None -> false

let move_done t ~seq st k =
  charge_k t (model t).Vhw.Cost_model.context_switch_ns (fun () ->
      if Vsim.Trace.tracing t.eng then
        Vsim.Trace.event t.eng
          (Vsim.Event.Move_done
             { host = t.khost; seq; status = status_to_string st });
      k st)

let mt_finish t (mto : mt_out) st =
  if mt_alive t mto then begin
    stop t mto.mto_retx;
    Itbl.remove t.mt_outs mto.mto_seq;
    (* The gap from end-of-train to Data_ack is a pure control round
       trip. *)
    settle t mto.mto_retx st ~since:mto.mto_wait_since;
    move_done t ~seq:mto.mto_seq st mto.mto_done
  end

let mf_finish t (mfo : mf_out) st =
  if mf_alive t mfo then begin
    stop t mfo.mfo_retx;
    Itbl.remove t.mf_outs mfo.mfo_seq;
    (* RTT samples for MoveFrom are taken at first-fragment arrival
       (handle_data_mf); here we only record liveness. *)
    settle t mfo.mfo_retx st ~since:(-1);
    move_done t ~seq:mfo.mfo_seq st mfo.mfo_done
  end

let getpid_finish t (gw : getpid_wait) found =
  stop t gw.gw_retx;
  Itbl.remove t.getpid_waits gw.gw_lid;
  List.iter (fun k -> k found) (List.rev gw.gw_waiters)

let finish t x st =
  match x with
  | Send rs -> finish_send t rs st
  | Move_to mto -> mt_finish t mto st
  | Move_from mfo -> mf_finish t mfo st
  | Getpid gw -> getpid_finish t gw None

(* ------------------------------------------------------------------ *)
(* The retransmission timer                                            *)

let retx_of = function
  | Send rs -> rs.rs_retx
  | Move_to mto -> mto.mto_retx
  | Move_from mfo -> mfo.mfo_retx
  | Getpid gw -> gw.gw_retx

let retx_seq = function
  | Send rs -> rs.rs_pkt.Packet.seq
  | Move_to mto -> mto.mto_seq
  | Move_from mfo -> mfo.mfo_seq
  | Getpid gw -> gw.gw_seq

let retx_label = function
  | Send _ -> "send"
  | Move_to _ -> "move-to"
  | Move_from _ -> "move-from"
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
    | Move_to mto -> Int.min mto.mto_total t.cfg.max_packet_data
    | Move_from mfo -> Int.min mfo.mfo_total t.cfg.max_packet_data
  in
  let kind =
    match x with
    | Send _ -> k_rto_send
    | Move_to _ -> k_rto_moveto
    | Move_from _ -> k_rto_movefrom
    | Getpid _ -> k_rto_getpid
  in
  let rto = Rto.timeout_ns t.rto ~dst:rx.rx_dst ~bytes in
  rx.rx_timer <- Vsim.Engine.after t.eng ~kind rto (fun () -> expire t x ~rto)

(* Every timer expiry: count it, back off and trace the interval that
   fired; then fail the exchange once its retries are spent, or
   retransmit and wait again. *)
and expire t x ~rto =
  let rx = retx_of x in
  rx.rx_tries <- rx.rx_tries + 1;
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
    | Send _ | Move_to _ | Move_from _ -> ());
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
  | Move_to mto ->
      (* Probe with an empty fragment at [total]: a receiver that is done
         re-acks; one mid-transfer NAKs with the offset it needs, giving
         retransmission from the last correctly received packet. *)
      send_pkt t ~dst_host:mto.mto_retx.rx_dst
        (Packet.make ~op:Packet.Data_mt ~src_pid:mto.mto_src
           ~dst_pid:mto.mto_dst ~seq:mto.mto_seq ~offset:mto.mto_total
           ~total:mto.mto_total ~aux:mto.mto_dst_ptr ());
      arm t x
  | Move_from mfo ->
      mfo.mfo_nak_at <- -1;
      mfo.mfo_req_at <- Vsim.Engine.now t.eng;
      let req =
        Packet.make ~op:Packet.Move_from_req ~src_pid:mfo.mfo_me
          ~dst_pid:mfo.mfo_src ~seq:mfo.mfo_seq ~offset:mfo.mfo_expected
          ~total:mfo.mfo_total ~aux:mfo.mfo_src_ptr ()
      in
      send_pkt_k t ~dst_host:mfo.mfo_retx.rx_dst req (fun () ->
          charge_async t (model t).Vhw.Cost_model.send_bookkeep_ns;
          if mf_alive t mfo then arm t x)
  | Getpid gw ->
      send_pkt_gen t ~dst_addr:Vnet.Addr.broadcast
        (Packet.make ~op:Packet.Getpid_req ~src_pid:gw.gw_me
           ~dst_pid:Pid.nil ~seq:gw.gw_seq ~aux:gw.gw_lid ())
        ignore;
      arm t x

(* Proof of life from the peer of a blocked remote Send: restart the
   retry budget and the timer.  The elapsed time now includes more than a
   round trip, so the exchange no longer yields an RTT sample. *)
let restart_send t rs =
  rs.rs_retx.rx_tries <- 0;
  rs.rs_since <- -1;
  arm t (Send rs)

(* Launch a remote Send for local process [d], piggybacking the head of a
   read-accessible segment (Section 3.4); the timer arms once the packet
   is on the wire.  [since] starts the round-trip clock, or is [-1] for
   an exchange that can never be a clean sample. *)
let launch_send t (d : desc) msg ~dst ~seq ~since =
  let data =
    match
      if Msg.piggyback_allowed msg then Msg.readable_segment msg else None
    with
    | Some (ptr, len) ->
        let n = Int.min len t.cfg.max_seg_append in
        if Mem.valid d.d_mem ~pos:ptr ~len:n then
          Mem.read d.d_mem ~pos:ptr ~len:n
        else Bytes.empty
    | None -> Bytes.empty
  in
  let pkt =
    Packet.make ~op:Packet.Send ~src_pid:d.d_pid ~dst_pid:dst ~seq ~msg
      ~data ()
  in
  let rs =
    {
      rs_desc = d;
      rs_pkt = pkt;
      rs_since = since;
      rs_retx = new_retx ~dst:(Pid.host dst);
    }
  in
  d.d_rsend <- Some rs;
  d.d_state <- Awaiting_reply dst;
  send_pkt_k t ~dst_host:(Pid.host dst) pkt (fun () ->
      charge_async t (model t).Vhw.Cost_model.send_bookkeep_ns;
      match d.d_rsend with
      | Some rs' when rs' == rs -> arm t (Send rs)
      | Some _ | None -> ())

(* ------------------------------------------------------------------ *)
(* MoveTo / MoveFrom streaming                                         *)

(* Stream MoveTo fragments as maximally-sized packets; one acknowledgement
   at the end, none per packet (Section 3.3). *)
let stream_mt t (mto : mt_out) ~from =
  let m = model t in
  let gen = mto.mto_gen in
  let ok () = mt_alive t mto && mto.mto_gen = gen in
  let rec go cursor =
    if not (ok ()) then ()
    else if cursor >= mto.mto_total then begin
      charge_async t m.Vhw.Cost_model.send_bookkeep_ns;
      mto.mto_wait_since <- Vsim.Engine.now t.eng;
      arm t (Move_to mto)
    end
    else begin
      let len = Int.min t.cfg.max_packet_data (mto.mto_total - cursor) in
      let data = Mem.read mto.mto_mem ~pos:(mto.mto_src_ptr + cursor) ~len in
      let pkt =
        Packet.make ~op:Packet.Data_mt ~src_pid:mto.mto_src
          ~dst_pid:mto.mto_dst ~seq:mto.mto_seq ~offset:cursor
          ~total:mto.mto_total ~aux:mto.mto_dst_ptr ~data ()
      in
      send_pkt_k t ~pre_cost:m.Vhw.Cost_model.data_pkt_op_ns
        ~dst_host:(Pid.host mto.mto_dst) pkt (fun () -> go (cursor + len))
    end
  in
  go from

(* Stream MoveFrom data from a local reply-blocked process's granted
   segment back to a remote requester. *)
let stream_mf t ~(src_desc : desc) ~requester ~seq ~base_ptr ~total ~from =
  let m = model t in
  let gen = src_desc.d_mf_gen in
  let ok () =
    src_desc.d_mf_gen = gen
    && awaiting_reply src_desc.d_state requester
    && (match src_desc.d_grant with
       | Some g ->
           grant_covers g ~who:requester ~ptr:base_ptr ~len:total
             ~need_write:false
       | None -> false)
  in
  let rec go cursor =
    if not (ok ()) then ()
    else if cursor >= total then
      charge_async t m.Vhw.Cost_model.server_bookkeep_ns
    else begin
      let len = Int.min t.cfg.max_packet_data (total - cursor) in
      let data = Mem.read src_desc.d_mem ~pos:(base_ptr + cursor) ~len in
      let pkt =
        Packet.make ~op:Packet.Data_mf ~src_pid:src_desc.d_pid
          ~dst_pid:requester ~seq ~offset:cursor ~total ~data ()
      in
      send_pkt_k t ~pre_cost:m.Vhw.Cost_model.data_pkt_op_ns
        ~dst_host:(Pid.host requester) pkt (fun () -> go (cursor + len))
    end
  in
  go from

(* ------------------------------------------------------------------ *)
(* Receive path: packet handlers                                       *)

(* An incoming Send packet: create (or refresh) the alien, queue the
   message, answer retransmissions per Section 3.2. *)
let handle_send_pkt t (pkt : Packet.t) =
  let src = pkt.Packet.src_pid and dst = pkt.Packet.dst_pid in
  let reply_host = Pid.host src in
  match find_proc t dst with
  | None ->
      send_nack t ~dst_host:reply_host ~src_pid:dst ~dst_pid:src
        ~seq:pkt.Packet.seq Nonexistent
  | Some dd -> (
      match Itbl.find_opt t.aliens (Pid.to_int src) with
      | Some al when al.al_seq = pkt.Packet.seq -> (
          (* Retransmission of a message we already hold. *)
          t.s_dups <- t.s_dups + 1;
          match al.al_state, al.al_reply with
          | A_replied, Some reply ->
              (* Re-serving the cached reply proves the sender is still
                 retransmitting: restart its reclaim grace period. *)
              al.al_replied_at <- Vsim.Engine.now t.eng;
              send_pkt t ~dst_host:reply_host reply
          | A_forwarded, _ ->
              (* The exchange moved on: remind the sender where, so its
                 retransmissions reach the kernel that can answer. *)
              send_pkt t ~dst_host:reply_host
                (Packet.make ~op:Packet.Fwd_notice ~src_pid:dst ~dst_pid:src
                   ~seq:pkt.Packet.seq ~aux:(Pid.to_int al.al_fwd) ())
          | A_replied, None | A_queued, _ | A_received, _ ->
              send_reply_pending t ~dst_host:reply_host ~src_pid:dst
                ~dst_pid:src ~seq:pkt.Packet.seq)
      | Some al when pkt.Packet.seq < al.al_seq ->
          (* A stale straggler (delayed or reordered in the network) from
             an exchange this sender has already completed: sequence
             numbers from one sender only grow, so the alien's newer seq
             proves the sender moved on.  Filter it — delivering it as a
             fresh message would apply a non-idempotent operation twice. *)
          t.s_dups <- t.s_dups + 1
      | existing ->
          (* A new message from this sender supersedes any older alien. *)
          (match existing with Some al -> remove_alien t al | None -> ());
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
                al_reply = None;
                al_fwd = Pid.nil;
                al_msg = Msg.copy pkt.Packet.msg;
                al_data = pkt.Packet.data;
                al_replied_at = 0;
              }
            in
            Itbl.replace t.aliens (Pid.to_int src) al;
            t.alien_count <- t.alien_count + 1;
            t.s_aliens <- t.s_aliens + 1;
            enqueue_msg t dd
              {
                q_src = src;
                q_seq = al.al_seq;
                q_msg = al.al_msg;
                q_local = false;
              };
            try_deliver t dd
          end)

(* A Reply packet for one of our blocked senders. *)
let handle_reply_pkt t (pkt : Packet.t) =
  match find_proc t pkt.Packet.dst_pid with
  | None -> ()
  | Some d -> (
      match d.d_rsend with
      | Some rs when rs.rs_pkt.Packet.seq = pkt.Packet.seq ->
          (match d.d_reply_buf with
          | Some buf -> Msg.blit ~src:pkt.Packet.msg ~dst:buf
          | None -> ());
          (* ReplyWithSegment: deposit the appended segment at the dest
             pointer, provided this process granted write access there. *)
          if Bytes.length pkt.Packet.data > 0 then begin
            let ptr = pkt.Packet.offset
            and len = Bytes.length pkt.Packet.data in
            let allowed =
              match d.d_grant with
              | Some g ->
                  grant_covers g ~who:pkt.Packet.src_pid ~ptr ~len
                    ~need_write:true
                  && Mem.valid d.d_mem ~pos:ptr ~len
              | None -> false
            in
            if allowed then
              Mem.blit_in d.d_mem ~pos:ptr pkt.Packet.data ~src_off:0 ~len
          end;
          d.d_grant <- None;
          finish_send t rs Ok
      | Some _ | None -> ())

let handle_reply_pending t (pkt : Packet.t) =
  match find_proc t pkt.Packet.dst_pid with
  | None -> ()
  | Some d -> (
      match d.d_rsend with
      | Some rs when rs.rs_pkt.Packet.seq = pkt.Packet.seq ->
          (* The receiver lives; be patient indefinitely. *)
          restart_send t rs
      | Some _ | None -> ())

let handle_nack t (pkt : Packet.t) =
  let st = status_of_code pkt.Packet.aux in
  (* A NACK may target a blocked sender or an in-flight data transfer. *)
  (match Itbl.find_opt t.mt_outs pkt.Packet.seq with
  | Some mto -> mt_finish t mto st
  | None -> ());
  (match Itbl.find_opt t.mf_outs pkt.Packet.seq with
  | Some mfo -> mf_finish t mfo st
  | None -> ());
  match find_proc t pkt.Packet.dst_pid with
  | None -> ()
  | Some d -> (
      match d.d_rsend with
      | Some rs when rs.rs_pkt.Packet.seq = pkt.Packet.seq ->
          d.d_grant <- None;
          finish_send t rs st
      | Some _ | None -> ())

(* An inbound MoveTo is named by its mover's host and sequence number,
   which arrives in a 32-bit wire field: both fit in one int key. *)
let mt_in_key ~host ~seq = (host lsl 32) lor seq
let mt_in_host key = key lsr 32

(* Incoming MoveTo fragment. *)
let handle_data_mt t (pkt : Packet.t) =
  let key = mt_in_key ~host:(Pid.host pkt.Packet.src_pid) ~seq:pkt.Packet.seq in
  let mover = pkt.Packet.src_pid in
  (* Data arriving from the process we are send-blocked on is proof of
     life: a long MoveTo into our space must not trip our own Send
     retransmission (the transfer can far outlast T). *)
  (match find_proc t pkt.Packet.dst_pid with
  | Some ({ d_rsend = Some rs; _ } as dd) when awaiting_reply dd.d_state mover
    ->
      restart_send t rs
  | Some _ | None -> ());
  let nak expected =
    t.s_naks <- t.s_naks + 1;
    send_pkt t ~dst_host:(Pid.host mover)
      (Packet.make ~op:Packet.Data_nak ~src_pid:pkt.Packet.dst_pid
         ~dst_pid:mover ~seq:pkt.Packet.seq ~offset:expected ())
  in
  let ack () =
    send_pkt t ~dst_host:(Pid.host mover)
      (Packet.make ~op:Packet.Data_ack ~src_pid:pkt.Packet.dst_pid
         ~dst_pid:mover ~seq:pkt.Packet.seq ())
  in
  let mti =
    match Itbl.find_opt t.mt_ins key with
    | Some _ as found -> found
    | None -> (
        (* First fragment of a new transfer: validate the grant. *)
        match find_proc t pkt.Packet.dst_pid with
        | None ->
            send_nack t ~dst_host:(Pid.host mover) ~src_pid:pkt.Packet.dst_pid
              ~dst_pid:mover ~seq:pkt.Packet.seq Nonexistent;
            None
        | Some dd ->
            let ptr = pkt.Packet.aux and len = pkt.Packet.total in
            if not (granted dd ~who:mover ~ptr ~len ~need_write:true) then begin
              send_nack t ~dst_host:(Pid.host mover)
                ~src_pid:pkt.Packet.dst_pid ~dst_pid:mover
                ~seq:pkt.Packet.seq No_permission;
              None
            end
            else begin
              (* Lazily reclaim entries old enough that their mover has
                 long since given up retransmitting.  The horizon follows
                 each entry's current per-destination RTO: under an
                 adaptive, backed-off estimator the static configured
                 timeout can be far shorter than the mover's live timer,
                 and a fixed horizon would reclaim an in-progress inbound
                 transfer whose next fragment is merely slow.  The walk
                 only picks keys to remove, and the estimators it may
                 create are never walked, so its order does not matter. *)
              let now = Vsim.Engine.now t.eng in
              let stale =
                Itbl.fold
                  (fun k mti acc ->
                    let horizon =
                      20
                      * Rto.current_ns t.rto ~dst:(mt_in_host k)
                          ~bytes:(Int.min mti.mti_total t.cfg.max_packet_data)
                    in
                    if now - mti.mti_born > horizon then k :: acc else acc)
                  t.mt_ins []
              in
              List.iter (Itbl.remove t.mt_ins) stale;
              let mti =
                {
                  mti_src = mover;
                  mti_dst = dd.d_pid;
                  mti_dst_ptr = ptr;
                  mti_total = len;
                  mti_born = now;
                  mti_expected = 0;
                  mti_complete = false;
                }
              in
              Itbl.replace t.mt_ins key mti;
              Some mti
            end)
  in
  match mti with
  | None -> ()
  | Some mti ->
      if mti.mti_complete then ack ()
      else begin
        let off = pkt.Packet.offset
        and len = Bytes.length pkt.Packet.data in
        if off > mti.mti_expected then nak mti.mti_expected
        else if off < mti.mti_expected then
          (* Duplicate; data already placed. *)
          t.s_dups <- t.s_dups + 1
        else begin
          (match find_proc t mti.mti_dst with
          | Some dd when len > 0 ->
              Mem.blit_in dd.d_mem ~pos:(mti.mti_dst_ptr + off)
                pkt.Packet.data ~src_off:0 ~len
          | Some _ | None -> ());
          mti.mti_expected <- off + len;
          if mti.mti_expected >= mti.mti_total then begin
            mti.mti_complete <- true;
            ack ()
          end
        end
      end

(* Incoming MoveFrom data fragment at the requester. *)
let handle_data_mf t (pkt : Packet.t) =
  match Itbl.find_opt t.mf_outs pkt.Packet.seq with
  | None -> ()
  | Some mfo ->
      let off = pkt.Packet.offset and len = Bytes.length pkt.Packet.data in
      if off > mfo.mfo_expected then begin
        (* NAK each gap once; a lost NAK is recovered by the request
           timeout, which re-enables NAKing. *)
        if mfo.mfo_nak_at <> mfo.mfo_expected then begin
          mfo.mfo_nak_at <- mfo.mfo_expected;
          t.s_naks <- t.s_naks + 1;
          send_pkt t ~dst_host:(Pid.host mfo.mfo_src)
            (Packet.make ~op:Packet.Data_nak ~src_pid:mfo.mfo_me
               ~dst_pid:mfo.mfo_src ~seq:mfo.mfo_seq ~offset:mfo.mfo_expected
               ~total:mfo.mfo_total ~aux:mfo.mfo_src_ptr ())
        end
      end
      else if off < mfo.mfo_expected then t.s_dups <- t.s_dups + 1
      else begin
        (* The request-to-first-data gap is a clean round-trip sample,
           provided no timeout retransmitted the request (Karn). *)
        if off = 0 && mfo.mfo_retx.rx_tries = 0 then
          settle t mfo.mfo_retx Ok ~since:mfo.mfo_req_at;
        if len > 0 then
          Mem.blit_in mfo.mfo_mem ~pos:(mfo.mfo_dst_ptr + off) pkt.Packet.data
            ~src_off:0 ~len;
        mfo.mfo_expected <- off + len;
        mfo.mfo_nak_at <- -1;
        (* Fresh data: the source is alive, push the timeout out and
           restart the retry budget — retries count consecutive silent
           periods, not total loss over a long transfer. *)
        mfo.mfo_retx.rx_tries <- 0;
        if mfo.mfo_expected >= mfo.mfo_total then mf_finish t mfo Ok
        else arm t (Move_from mfo)
      end

let handle_data_ack t (pkt : Packet.t) =
  match Itbl.find_opt t.mt_outs pkt.Packet.seq with
  | None -> ()
  | Some mto -> mt_finish t mto Ok

(* A NAK against one of our outgoing streams: rewind to the offset the
   receiver reports and restart the stream from there. *)
let handle_data_nak t (pkt : Packet.t) =
  match Itbl.find_opt t.mt_outs pkt.Packet.seq with
  | Some mto ->
      mto.mto_gen <- mto.mto_gen + 1;
      stop t mto.mto_retx;
      stream_mt t mto ~from:pkt.Packet.offset
  | None -> (
      (* NAK of a MoveFrom stream we source: the NAK carries the transfer
         shape (base/total) so no source-side transfer state is needed. *)
      match find_proc t pkt.Packet.dst_pid with
      | Some src_desc ->
          src_desc.d_mf_gen <- src_desc.d_mf_gen + 1;
          stream_mf t ~src_desc ~requester:pkt.Packet.src_pid
            ~seq:pkt.Packet.seq ~base_ptr:pkt.Packet.aux
            ~total:pkt.Packet.total ~from:pkt.Packet.offset
      | None -> ())

let handle_move_from_req t (pkt : Packet.t) =
  let requester = pkt.Packet.src_pid in
  match find_proc t pkt.Packet.dst_pid with
  | None ->
      send_nack t ~dst_host:(Pid.host requester) ~src_pid:pkt.Packet.dst_pid
        ~dst_pid:requester ~seq:pkt.Packet.seq Nonexistent
  | Some sd ->
      let ptr = pkt.Packet.aux and len = pkt.Packet.total in
      if not (granted sd ~who:requester ~ptr ~len ~need_write:false) then
        send_nack t ~dst_host:(Pid.host requester) ~src_pid:pkt.Packet.dst_pid
          ~dst_pid:requester ~seq:pkt.Packet.seq No_permission
      else begin
        sd.d_mf_gen <- sd.d_mf_gen + 1;
        stream_mf t ~src_desc:sd ~requester ~seq:pkt.Packet.seq ~base_ptr:ptr
          ~total:len ~from:pkt.Packet.offset
      end

(* A forward notice: our blocked sender's message moved to a new server;
   retarget retransmissions and the segment grant (Thoth's Forward). *)
let handle_fwd_notice t (pkt : Packet.t) =
  match find_proc t pkt.Packet.dst_pid with
  | None -> ()
  | Some d -> (
      match d.d_rsend with
      | Some rs when rs.rs_pkt.Packet.seq = pkt.Packet.seq ->
          let new_pid = Pid.of_int pkt.Packet.aux in
          rs.rs_pkt <- { rs.rs_pkt with Packet.dst_pid = new_pid };
          rs.rs_retx.rx_dst <- Pid.host new_pid;
          restart_send t rs;
          d.d_state <- Awaiting_reply new_pid;
          (match d.d_grant with
          | Some g -> d.d_grant <- Some { g with granted_to = new_pid }
          | None -> ())
      | Some _ | None -> ())

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
         host's own estimator is credited too, so a later direct exchange
         starts informed. *)
      settle t gw.gw_retx Ok ~since:gw.gw_born;
      if not (Pid.is_nil pkt.Packet.src_pid) then
        Rto.note_success t.rto
          ~dst:(Pid.host pkt.Packet.src_pid)
          ~sample_ns:(karn_sample t gw.gw_retx ~since:gw.gw_born);
      getpid_finish t gw (Some found)

(* Main receive dispatch, invoked by the NIC after the receive-side CPU
   charge for the packet itself. *)
let handle_frame t (frame : Vnet.Frame.t) =
  if t.down then ()
    (* a crashed host hears nothing: frames in flight towards it when the
       power went out fall on the floor *)
  else begin
    let payload = frame.Vnet.Frame.payload in
    let payload, extra =
      if t.cfg.ip_header_mode then
        ( Bytes.sub payload ip_pad (Bytes.length payload - ip_pad),
          (model t).Vhw.Cost_model.ip_header_extra_ns )
      else (payload, 0)
    in
    let extra =
      extra
      + (if t.cfg.process_server_mode then relay_cost t (Bytes.length payload)
         else 0)
    in
    match Packet.of_bytes payload with
    | Error e ->
        if Vsim.Trace.tracing t.eng then
          Vsim.Trace.event t.eng
            (Vsim.Event.Packet_drop
               {
                 host = t.khost;
                 reason = "decode: " ^ e;
                 bytes = Bytes.length payload;
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
                     bytes = Bytes.length payload;
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
             control packets pay the remote-operation processing cost. *)
          match pkt.Packet.op with
          | Packet.Data_mt | Packet.Data_mf -> charge_k t extra dispatch
          | Packet.Send | Packet.Reply | Packet.Reply_pending | Packet.Nack
          | Packet.Data_ack | Packet.Data_nak | Packet.Move_from_req
          | Packet.Getpid_req | Packet.Getpid_reply | Packet.Fwd_notice ->
              charge_k t (extra + m.Vhw.Cost_model.remote_op_extra_ns) dispatch
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
      mt_outs = Itbl.create 16;
      mt_ins = Itbl.create 16;
      mf_outs = Itbl.create 16;
      registry = Itbl.create 16;
      getpid_cache = Itbl.create 16;
      getpid_waits = Itbl.create 16;
      rto =
        Rto.create eng ~host ~model:(Vhw.Cpu.model cpu) ~mode:config.rto_mode
          ~fixed_ns:config.retransmit_timeout_ns ~min_ns:config.rto_min_ns
          ~max_ns:config.rto_max_ns ~ns_per_byte:config.rto_ns_per_byte
          ~suspect_threshold:config.suspect_threshold;
      kfibers = Itbl.create 64;
      down = false;
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
  let mem_size = Option.value mem_size ~default:t.cfg.default_mem_size in
  let d =
    {
      d_pid = pid;
      d_name = name;
      d_mem = Mem.create ~size:mem_size;
      d_queue = Queue.create ();
      d_state = Ready;
      d_grant = None;
      d_on_reply = None;
      d_reply_buf = None;
      d_recv = None;
      d_rsend = None;
      d_mf_gen = 0;
    }
  in
  Itbl.replace t.procs (Pid.local pid) d;
  let p =
    Vsim.Proc.spawn t.eng ~name (fun () ->
        let self = Vsim.Proc.self () in
        Itbl.replace t.fibers (Vsim.Proc.id self) d;
        Fun.protect
          ~finally:(fun () ->
            Itbl.remove t.fibers (Vsim.Proc.id self);
            Itbl.remove t.kfibers (Vsim.Proc.id self))
          (fun () -> body pid))
  in
  Itbl.replace t.kfibers (Vsim.Proc.id p) p;
  pid

let destroy t pid =
  match find_proc t pid with
  | None -> ()
  | Some d ->
      d.d_state <- Dead;
      Itbl.remove t.procs (Pid.local pid);
      (* Its own remote exchanges die with it, unresumed: nothing would
         deliver their answers, and their retries would only wear down
         the failure detector's view of live peers. *)
      (match d.d_rsend with
      | Some rs ->
          stop t rs.rs_retx;
          d.d_rsend <- None
      | None -> ());
      Itbl.filter_map_inplace
        (fun _ mto ->
          if Pid.equal mto.mto_src pid then (stop t mto.mto_retx; None)
          else Some mto)
        t.mt_outs;
      Itbl.filter_map_inplace
        (fun _ mfo ->
          if Pid.equal mfo.mfo_me pid then (stop t mfo.mfo_retx; None)
          else Some mfo)
        t.mf_outs;
      (* Fail everyone who was talking to it. *)
      Queue.iter
        (fun entry ->
          if entry.q_local then (
            match
              Itbl.find_opt t.procs (Pid.local entry.q_src)
            with
            | Some sender when awaiting_reply sender.d_state pid ->
                sender.d_state <- Ready;
                let k = sender.d_on_reply in
                sender.d_on_reply <- None;
                sender.d_reply_buf <- None;
                (match k with
                | Some k -> charge_k t 0 (fun () -> k Nonexistent)
                | None -> ())
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
          match w.d_recv with
          | Some ({ rw_from = Some from; _ } as rw) when Pid.equal from pid ->
              w.d_recv <- None;
              w.d_state <- Ready;
              charge_k t 0 (fun () -> rw.rw_k (Pid.nil, 0))
          | Some _ | None -> ())
        t.procs

let memory t pid =
  match find_proc t pid with
  | Some d -> d.d_mem
  | None -> Fmt.invalid_arg "Kernel.memory: no process %a" Pid.pp pid

let self_pid t = (current t).d_pid
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
        d.d_state <- Dead;
        match d.d_rsend with Some rs -> stop t rs.rs_retx | None -> ())
      t.procs;
    Itbl.iter (fun _ mto -> stop t mto.mto_retx) t.mt_outs;
    Itbl.iter (fun _ mfo -> stop t mfo.mfo_retx) t.mf_outs;
    Itbl.iter (fun _ gw -> stop t gw.gw_retx) t.getpid_waits;
    Itbl.reset t.procs;
    Itbl.reset t.fibers;
    Itbl.reset t.aliens;
    t.alien_count <- 0;
    Itbl.reset t.mt_outs;
    Itbl.reset t.mt_ins;
    Itbl.reset t.mf_outs;
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
  d.d_grant <- grant_of_msg msg ~granted_to:dst;
  if not remote then begin
    t.s_send_local <- t.s_send_local + 1;
    match find_proc t dst with
    | None ->
        d.d_grant <- None;
        Nonexistent
    | Some dd ->
        enqueue_msg t dd
          { q_src = d.d_pid; q_seq = 0; q_msg = Msg.copy msg; q_local = true };
        d.d_state <- Awaiting_reply dst;
        Vsim.Proc.suspend ~reason:"send" (fun resume ->
            d.d_on_reply <- Some resume;
            d.d_reply_buf <- Some msg;
            try_deliver t dd)
  end
  else begin
    t.s_send_remote <- t.s_send_remote + 1;
    charge t m.Vhw.Cost_model.remote_op_extra_ns;
    Vsim.Proc.suspend ~reason:"send-remote" (fun resume ->
        d.d_on_reply <- Some resume;
        d.d_reply_buf <- Some msg;
        launch_send t d msg ~dst ~seq ~since:(Vsim.Engine.now t.eng))
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
      d.d_state <- Receive_blocked;
      Vsim.Proc.suspend ~reason:"receive" (fun resume ->
          d.d_recv <-
            Some { rw_msg = msg; rw_seg = seg; rw_from = from; rw_k = resume })

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

let reply_gen t msg dst ~seg =
  let d = current t in
  let m = model t in
  let seg_cost =
    match seg with Some _ -> m.Vhw.Cost_model.segment_handling_ns | None -> 0
  in
  charge t (m.Vhw.Cost_model.reply_op_ns + seg_cost);
  if Pid.host dst = t.khost then begin
    match find_proc t dst with
    | Some dd when awaiting_reply dd.d_state d.d_pid -> (
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
            (match dd.d_reply_buf with
            | Some buf -> Msg.blit ~src:msg ~dst:buf
            | None -> ());
            dd.d_state <- Ready;
            dd.d_grant <- None;
            let k = dd.d_on_reply in
            dd.d_on_reply <- None;
            dd.d_reply_buf <- None;
            (match k with
            | Some k ->
                charge_k t m.Vhw.Cost_model.context_switch_ns (fun () ->
                    k Ok)
            | None -> ());
            Ok
        | (Nonexistent | Bad_address | No_permission | Too_big | Retryable
          | Dead) as err ->
            err)
    | Some _ | None -> No_permission
  end
  else begin
    (* Reply to an alien: the reply packet is the acknowledgement. *)
    match Itbl.find_opt t.aliens (Pid.to_int dst) with
    | Some al
      when Pid.equal al.al_dst d.d_pid
           && (al.al_state = A_received || al.al_state = A_queued) -> (
        let build_and_send data destptr =
          let pkt =
            Packet.make ~op:Packet.Reply ~src_pid:d.d_pid ~dst_pid:dst
              ~seq:al.al_seq ~offset:destptr ~msg ~data ()
          in
          if Vsim.Trace.tracing t.eng then
            Vsim.Trace.event t.eng
              (Vsim.Event.Reply
                 {
                   host = t.khost;
                   src = Pid.to_int d.d_pid;
                   dst = Pid.to_int dst;
                   seq = al.al_seq;
                   remote = true;
                 });
          al.al_state <- A_replied;
          al.al_reply <- Some pkt;
          (* The alien/timer upkeep of the reply side is accounted by the
             asynchronous server bookkeeping charge below. *)
          Vsim.Proc.suspend ~reason:"reply-tx" (fun resume ->
              send_pkt_k t ~dst_host:(Pid.host dst) pkt (fun () ->
                  charge_async t m.Vhw.Cost_model.server_bookkeep_ns;
                  resume ()));
          Ok
        in
        match seg with
        | None -> build_and_send Bytes.empty 0
        | Some (destptr, segptr, segsize) ->
            if segsize > t.cfg.max_packet_data then Too_big
            else if not (Mem.valid d.d_mem ~pos:segptr ~len:segsize) then
              Bad_address
            else
              build_and_send (Mem.read d.d_mem ~pos:segptr ~len:segsize)
                destptr)
    | Some _ | None -> No_permission
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
  let fail_sender_local (fd : desc) st =
    fd.d_state <- Ready;
    fd.d_grant <- None;
    (match fd.d_rsend with
    | Some rs ->
        stop t rs.rs_retx;
        fd.d_rsend <- None
    | None -> ());
    let k = fd.d_on_reply in
    fd.d_on_reply <- None;
    fd.d_reply_buf <- None;
    match k with
    | Some k -> charge_k t 0 (fun () -> k st)
    | None -> ()
  in
  if Pid.host from_pid = t.khost then begin
    (* The sender is local to this kernel. *)
    match find_proc t from_pid with
    | Some fd when awaiting_reply fd.d_state d.d_pid ->
        fd.d_grant <- grant_of_msg msg ~granted_to:to_pid;
        if Pid.host to_pid = t.khost then begin
          match find_proc t to_pid with
          | None ->
              fail_sender_local fd Nonexistent;
              Nonexistent
          | Some td ->
              enqueue_msg t td
                { q_src = from_pid; q_seq = 0; q_msg = Msg.copy msg;
                  q_local = true };
              fd.d_state <- Awaiting_reply to_pid;
              try_deliver t td;
              Ok
        end
        else begin
          (* Re-launch the message as a remote Send on the sender's
             behalf; the sender now waits on the network path. *)
          charge t m.Vhw.Cost_model.remote_op_extra_ns;
          (* The exchange already spans a forward: never sample it. *)
          launch_send t fd msg ~dst:to_pid ~seq:(next_seq t) ~since:(-1);
          Ok
        end
    | Some _ | None -> No_permission
  end
  else begin
    (* The sender is an alien: it sent from another workstation. *)
    match Itbl.find_opt t.aliens (Pid.to_int from_pid) with
    | Some al
      when Pid.equal al.al_dst d.d_pid
           && (al.al_state = A_received || al.al_state = A_queued) ->
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
              let al' = { al with al_dst = to_pid; al_state = A_queued } in
              Itbl.replace t.aliens (Pid.to_int from_pid) al';
              enqueue_msg t td
                { q_src = from_pid; q_seq = al.al_seq; q_msg = al'.al_msg;
                  q_local = false };
              (* The reply will come from [to_pid]: the sender's kernel
                 must retarget its retransmissions and segment grant or
                 it will drop the new server's reply segment. *)
              let notice =
                Packet.make ~op:Packet.Fwd_notice ~src_pid:d.d_pid
                  ~dst_pid:from_pid ~seq:al.al_seq
                  ~aux:(Pid.to_int to_pid) ()
              in
              send_pkt t ~dst_host:(Pid.host from_pid) notice;
              try_deliver t td;
              Ok
        end
        else begin
          (* Remote-to-remote: re-launch the Send with the original
             sender and sequence number so the new server's reply matches
             the sender's outstanding rsend, and notify the sender's
             kernel so its retransmissions and grants retarget. *)
          charge t m.Vhw.Cost_model.remote_op_extra_ns;
          al.al_state <- A_forwarded;
          al.al_fwd <- to_pid;
          let pkt =
            Packet.make ~op:Packet.Send ~src_pid:from_pid ~dst_pid:to_pid
              ~seq:al.al_seq ~msg ~data:al.al_data ()
          in
          send_pkt t ~dst_host:(Pid.host to_pid) pkt;
          let notice =
            Packet.make ~op:Packet.Fwd_notice ~src_pid:d.d_pid
              ~dst_pid:from_pid ~seq:al.al_seq
              ~aux:(Pid.to_int to_pid) ()
          in
          send_pkt t ~dst_host:(Pid.host from_pid) notice;
          charge_async t m.Vhw.Cost_model.send_bookkeep_ns;
          Ok
        end
    | Some _ | None -> No_permission
  end

(* ------------------------------------------------------------------ *)
(* Data transfer                                                       *)

let move_to t ~dst_pid ~dst ~src ~count =
  let d = current t in
  let m = model t in
  charge t m.Vhw.Cost_model.move_setup_ns;
  if count < 0 || not (Mem.valid d.d_mem ~pos:src ~len:count) then Bad_address
  else if Pid.host dst_pid = t.khost then begin
    t.s_move_local <- t.s_move_local + 1;
    match find_proc t dst_pid with
    | None -> Nonexistent
    | Some dd ->
        if not (granted dd ~who:d.d_pid ~ptr:dst ~len:count ~need_write:true)
        then No_permission
        else begin
          if Vsim.Trace.tracing t.eng then
            Vsim.Trace.event t.eng
              (Vsim.Event.Move
                 {
                   host = t.khost;
                   dir = Vsim.Event.To;
                   src = Pid.to_int d.d_pid;
                   dst = Pid.to_int dst_pid;
                   seq = 0;
                   bytes = count;
                   remote = false;
                 });
          charge t (count * m.Vhw.Cost_model.mem_copy_ns_per_byte);
          Mem.transfer ~src:d.d_mem ~src_pos:src ~dst:dd.d_mem ~dst_pos:dst
            ~len:count;
          Ok
        end
  end
  else begin
    t.s_move_remote <- t.s_move_remote + 1;
    (* Hoisted out of the suspend body (which runs synchronously at
       registration) so the Move event can carry the sequence number. *)
    let seq = next_seq t in
    if Vsim.Trace.tracing t.eng then
      Vsim.Trace.event t.eng
        (Vsim.Event.Move
           {
             host = t.khost;
             dir = Vsim.Event.To;
             src = Pid.to_int d.d_pid;
             dst = Pid.to_int dst_pid;
             seq;
             bytes = count;
             remote = true;
           });
    charge t m.Vhw.Cost_model.remote_op_extra_ns;
    Vsim.Proc.suspend ~reason:"moveto" (fun resume ->
        let mto =
          {
            mto_seq = seq;
            mto_src = d.d_pid;
            mto_dst = dst_pid;
            mto_src_ptr = src;
            mto_dst_ptr = dst;
            mto_total = count;
            mto_mem = d.d_mem;
            mto_gen = 0;
            mto_retx = new_retx ~dst:(Pid.host dst_pid);
            mto_wait_since = -1;
            mto_done = resume;
          }
        in
        Itbl.replace t.mt_outs seq mto;
        stream_mt t mto ~from:0)
  end

let move_from t ~src_pid ~dst ~src ~count =
  let d = current t in
  let m = model t in
  charge t m.Vhw.Cost_model.move_setup_ns;
  if count < 0 || not (Mem.valid d.d_mem ~pos:dst ~len:count) then Bad_address
  else if Pid.host src_pid = t.khost then begin
    t.s_move_local <- t.s_move_local + 1;
    match find_proc t src_pid with
    | None -> Nonexistent
    | Some sd ->
        if not (granted sd ~who:d.d_pid ~ptr:src ~len:count ~need_write:false)
        then No_permission
        else begin
          if Vsim.Trace.tracing t.eng then
            Vsim.Trace.event t.eng
              (Vsim.Event.Move
                 {
                   host = t.khost;
                   dir = Vsim.Event.From;
                   src = Pid.to_int src_pid;
                   dst = Pid.to_int d.d_pid;
                   seq = 0;
                   bytes = count;
                   remote = false;
                 });
          charge t (count * m.Vhw.Cost_model.mem_copy_ns_per_byte);
          Mem.transfer ~src:sd.d_mem ~src_pos:src ~dst:d.d_mem ~dst_pos:dst
            ~len:count;
          Ok
        end
  end
  else begin
    t.s_move_remote <- t.s_move_remote + 1;
    (* Hoisted as in [move_to]: the Move event carries the sequence. *)
    let seq = next_seq t in
    if Vsim.Trace.tracing t.eng then
      Vsim.Trace.event t.eng
        (Vsim.Event.Move
           {
             host = t.khost;
             dir = Vsim.Event.From;
             src = Pid.to_int src_pid;
             dst = Pid.to_int d.d_pid;
             seq;
             bytes = count;
             remote = true;
           });
    charge t m.Vhw.Cost_model.remote_op_extra_ns;
    Vsim.Proc.suspend ~reason:"movefrom" (fun resume ->
        let mfo =
          {
            mfo_seq = seq;
            mfo_me = d.d_pid;
            mfo_src = src_pid;
            mfo_src_ptr = src;
            mfo_dst_ptr = dst;
            mfo_total = count;
            mfo_mem = d.d_mem;
            mfo_expected = 0;
            mfo_nak_at = -1;
            mfo_retx = new_retx ~dst:(Pid.host src_pid);
            mfo_req_at = 0;
            mfo_done = resume;
          }
        in
        Itbl.replace t.mf_outs seq mfo;
        transmit t (Move_from mfo))
  end

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
              Vsim.Proc.suspend ~reason:"getpid" (fun resume ->
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
                          gw_retx = new_retx ~dst:(getpid_dst ~logical_id);
                          gw_born = Vsim.Engine.now t.eng;
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
      | A_replied -> incr aliens_replied
      | A_forwarded -> incr aliens_forwarded)
    t.aliens;
  let mt_ins_incomplete = ref 0 in
  Itbl.iter
    (fun _ mti -> if not mti.mti_complete then incr mt_ins_incomplete)
    t.mt_ins;
  let sends_blocked = ref 0 in
  Itbl.iter
    (fun _ d -> if d.d_rsend <> None then incr sends_blocked)
    t.procs;
  {
    aliens_live = !aliens_live;
    aliens_replied = !aliens_replied;
    aliens_forwarded = !aliens_forwarded;
    mt_ins_incomplete = !mt_ins_incomplete;
    mt_ins_total = Itbl.length t.mt_ins;
    mt_outs_pending = Itbl.length t.mt_outs;
    mf_outs_pending = Itbl.length t.mf_outs;
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
