open Ktypes
open Kstate

let k_rto_send = Vsim.Eventq.Kind.intern "kernel.rto_send"
let k_rto_moveto = Vsim.Eventq.Kind.intern "kernel.rto_moveto"
let k_rto_movefrom = Vsim.Eventq.Kind.intern "kernel.rto_movefrom"
let k_rto_getpid = Vsim.Eventq.Kind.intern "kernel.rto_getpid"

(* ------------------------------------------------------------------ *)
(* Ending remote exchanges                                             *)

let new_retx ~dst ~since =
  { rx_dst = dst; rx_tries = 0; rx_since = since; rx_timer = Vsim.Eventq.none }

let stop t rx = Vsim.Engine.cancel t.eng rx.rx_timer
let alive rx = rx.rx_tries <- 0

let karn_sample t rx =
  let since = rx.rx_since in
  rx.rx_since <- -1;
  if since >= 0 then Some (Vsim.Engine.now t.eng - since) else None

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

(* A remote Send's Send_done marks the instant the sender resumes; spans
   use it as the close timestamp, so it fires inside the charge's
   continuation, at the same engine time as the resume. *)
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

let finish_send t ~tail (rs : rsend) st =
  settle t rs.rs_retx st;
  wake_sender t ~tail ~ns:(model t).Vhw.Cost_model.context_switch_ns
    rs.rs_desc st

let move_finish t (mo : move_out) st =
  if move_alive mo then begin
    stop t mo.mo_retx;
    mo.mo_desc.d_state <- Ready;
    (* A MoveTo's gap from end-of-train to Data_ack is a pure control
       round trip; a MoveFrom's clock gave its sample at the first
       fragment (Trains.handle_data_mf), so here it only records
       liveness. *)
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
  Vsim.Itbl.remove t.getpid_waits gw.gw_lid;
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
  t.st.timeouts_fired <- t.st.timeouts_fired + 1;
  if rx.rx_tries > t.cfg.max_retries then begin
    let was_suspect = Rto.suspected t.rto ~dst:rx.rx_dst in
    let suspect = Rto.note_exhausted t.rto ~dst:rx.rx_dst in
    if suspect && not was_suspect then
      t.st.hosts_suspected <- t.st.hosts_suspected + 1;
    finish t x (if suspect then Dead else Retryable)
  end
  else begin
    t.st.retransmissions <- t.st.retransmissions + 1;
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

let restart t x =
  let rx = retx_of x in
  alive rx;
  rx.rx_since <- -1;
  arm t x

let stop_exchange t (d : desc) =
  match d.d_state with
  | Awaiting_reply { rsend = Some rs; _ } -> stop t rs.rs_retx
  | Moving mo -> stop t mo.mo_retx
  | Awaiting_reply { rsend = None; _ } | Ready | Receiving _ | Dead -> ()

(* ------------------------------------------------------------------ *)
(* Remote Send                                                         *)

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

let launch_send t ~tail (rs : rsend) =
  send_pkt_k t ~tail ~dst_host:rs.rs_retx.rx_dst rs.rs_pkt (fun () ->
      charge_async t (model t).Vhw.Cost_model.send_bookkeep_ns;
      match rs.rs_desc.d_state with
      | Awaiting_reply { rsend = Some rs'; _ } when rs' == rs -> arm t (Send rs)
      | Awaiting_reply _ | Ready | Receiving _ | Moving _ | Dead -> ())

(* ------------------------------------------------------------------ *)
(* The sending kernel's packet handlers                                *)

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
