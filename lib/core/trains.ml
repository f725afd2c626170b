open Ktypes
open Kstate

(* A receiving end that expects the [total] bytes at [ptr] in [mem]. *)
let train_in ~mem ~ptr ~total =
  In { mem; ptr; total; expected = 0; nak_at = -1 }

(* ------------------------------------------------------------------ *)
(* Streaming                                                           *)

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
  Exchange.stop t mo.mo_retx;
  stream t mo.mo_desc ~op:Packet.Data_mt ~dst_pid:mo.mo_peer ~seq:mo.mo_seq
    ~ptr ~total ~aux:mo.mo_peer_ptr ~from
    ~live:(fun () -> move_alive mo)
    ~at_end:(fun () ->
      charge_async t (model t).Vhw.Cost_model.send_bookkeep_ns;
      mo.mo_retx.rx_since <- Vsim.Engine.now t.eng;
      Exchange.arm t (Move mo))

(* (Re)stream a MoveFrom's data from local reply-blocked process [sd]'s
   granted segment back to the remote [requester]. *)
let stream_from t (sd : desc) ~requester ~seq ~ptr ~total ~from =
  stream t sd ~op:Packet.Data_mf ~dst_pid:requester ~seq ~ptr ~total ~aux:0
    ~from
    ~live:(fun () -> granted sd ~who:requester ~ptr ~len:total ~need_write:false)
    ~at_end:(fun () ->
      charge_async t (model t).Vhw.Cost_model.server_bookkeep_ns)

(* ------------------------------------------------------------------ *)
(* Receiving                                                           *)

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
        t.st.duplicates_filtered <- t.st.duplicates_filtered + 1;
        false
      end
      else begin
        if r.nak_at <> r.expected || (off = r.total && len = 0) then begin
          r.nak_at <- r.expected;
          t.st.gap_naks_sent <- t.st.gap_naks_sent + 1;
          send_pkt t ~dst_host:(Pid.host pkt.Packet.src_pid)
            (Packet.make ~op:Packet.Data_nak ~src_pid:pkt.Packet.dst_pid
               ~dst_pid:pkt.Packet.src_pid ~seq:pkt.Packet.seq
               ~offset:r.expected ~total ~aux ())
        end;
        false
      end

let complete = function
  | In { expected; total; _ } -> expected >= total
  | Out _ -> false

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
  | None -> Aliens.refuse t pkt Nonexistent
  | Some ({ d_state = Awaiting_reply { peer; grant; rsend; _ }; _ } as dd)
    when Pid.equal peer mover -> (
      (* Data arriving from the process we are send-blocked on is proof of
         life: a long MoveTo into our space must not trip our own Send
         retransmission (the transfer can far outlast T). *)
      (match rsend with Some rs -> Exchange.restart t (Send rs) | None -> ());
      let key = mt_key ~mover ~seq:pkt.Packet.seq in
      let ptr = pkt.Packet.aux and total = pkt.Packet.total in
      match grant with
      | Some { g_in = Some (In r as train); _ } when key = dd.d_mt_last ->
          if r.ptr = ptr && r.total = total then take_mt t train pkt
          else Aliens.refuse t pkt No_permission
      | Some _ when key <= dd.d_mt_last && key lsr 32 = dd.d_mt_last lsr 32 ->
          t.st.duplicates_filtered <- t.st.duplicates_filtered + 1
      | Some g
        when grant_covers g ~ptr ~len:total ~need_write:true
             && Mem.valid dd.d_mem ~pos:ptr ~len:total ->
          let train = train_in ~mem:dd.d_mem ~ptr ~total in
          g.g_in <- Some train;
          dd.d_mt_last <- key;
          take_mt t train pkt
      | Some _ | None -> Aliens.refuse t pkt No_permission)
  | Some _ -> Aliens.refuse t pkt No_permission

(* Incoming MoveFrom data fragment at the requester: fresh data is proof
   of life, and the one at offset 0 ends the request's round trip. *)
let handle_data_mf t (pkt : Packet.t) =
  match find_proc t pkt.Packet.dst_pid with
  | Some { d_state = Moving ({ mo_train = In r; mo_retx = rx; _ } as mo); _ }
    when mo.mo_seq = pkt.Packet.seq ->
      if take t mo.mo_train pkt ~total:r.total ~aux:mo.mo_peer_ptr then begin
        if pkt.Packet.offset = 0 && rx.rx_since >= 0 then
          Exchange.settle t rx Ok;
        Exchange.alive rx;
        if r.expected >= r.total then Exchange.move_finish t mo Ok
        else Exchange.arm t (Move mo)
      end
  | Some _ | None -> ()

let handle_data_ack t (pkt : Packet.t) =
  match find_proc t pkt.Packet.dst_pid with
  | Some { d_state = Moving ({ mo_train = Out _; _ } as mo); _ }
    when mo.mo_seq = pkt.Packet.seq ->
      Exchange.move_finish t mo Ok
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
      Exchange.alive mo.mo_retx;
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
  | None -> Aliens.refuse t pkt Nonexistent
  | Some sd ->
      let ptr = pkt.Packet.aux and len = pkt.Packet.total in
      if not (granted sd ~who:requester ~ptr ~len ~need_write:false) then
        Aliens.refuse t pkt No_permission
      else
        stream_from t sd ~requester ~seq:pkt.Packet.seq ~ptr ~total:len
          ~from:pkt.Packet.offset

(* ------------------------------------------------------------------ *)
(* The remote half of a move                                           *)

let move t (d : desc) dir ~peer ~ptr ~peer_ptr ~count ~seq =
  charge t (model t).Vhw.Cost_model.remote_op_extra_ns;
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
            Exchange.new_retx ~dst:(Pid.host peer)
              ~since:(match dir with To -> -1 | From -> now);
          mo_done = resume;
        }
      in
      d.d_state <- Moving mo;
      match dir with
      | To -> stream_to t mo ~ptr ~total:count ~from:0
      | From -> Exchange.transmit t (Move mo))
