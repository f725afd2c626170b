open Ktypes
open Kstate
module Itbl = Vsim.Itbl

let remove t (al : alien) = Itbl.remove t.aliens (Pid.to_int al.al_src)

(* Reclaim a replied alien to make room; returns true on success.

   Only replied aliens are candidates — their exchange is over — but a
   cached reply is still load-bearing while the sender's retransmission
   window is plausibly open: evicting it early would let a retransmitted
   Send re-execute a non-idempotent operation (Section 3.2).  So we evict
   only the alien whose cached reply was least recently (re)sent, and
   only once two retransmission intervals have passed since — by then a
   live sender would have retransmitted and refreshed it.  The tie-break
   on sender pid keeps the choice independent of hash order. *)
let reclaim_one t =
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
      remove t al;
      t.st.aliens_reclaimed <- t.st.aliens_reclaimed + 1;
      true
  | None -> false

(* ------------------------------------------------------------------ *)
(* NACKs, reply-pendings and forward notices                           *)

let send_nack t ~dst_host ~src_pid ~dst_pid ~seq st =
  t.st.nonexistent_nacks_sent <- t.st.nonexistent_nacks_sent + 1;
  send_pkt t ~dst_host
    (Packet.make ~op:Packet.Nack ~src_pid ~dst_pid ~seq
       ~aux:(status_to_code st) ())

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
  t.st.reply_pendings_sent <- t.st.reply_pendings_sent + 1;
  send_pkt t ~dst_host
    (Packet.make ~op:Packet.Reply_pending ~src_pid ~dst_pid ~seq ())

(* ------------------------------------------------------------------ *)
(* Incoming Sends                                                      *)

(* Queue an alien's new message for [dd]. *)
let accept t dd al =
  t.st.aliens_created <- t.st.aliens_created + 1;
  enqueue_msg t dd
    { q_src = al.al_src; q_seq = al.al_seq; q_msg = al.al_msg;
      q_local = false };
  try_deliver t ~tail:true dd

(* A retransmission of an exchange already answered gets the cached
   reply whether or not its replier still exists: the request ran, and
   only the reply was lost.  Any other Send needs a live destination. *)
let handle_send_pkt t (pkt : Packet.t) =
  let src = pkt.Packet.src_pid and dst = pkt.Packet.dst_pid in
  let reply_host = Pid.host src in
  match Itbl.find_opt t.aliens (Pid.to_int src), find_proc t dst with
  | Some { al_seq; al_state = A_replied r; _ }, _ when al_seq = pkt.Packet.seq
    ->
      t.st.duplicates_filtered <- t.st.duplicates_filtered + 1;
      (* Re-serving the cached reply proves the sender is still
         retransmitting: restart its reclaim grace period. *)
      r.at <- Vsim.Engine.now t.eng;
      send_pkt t ~dst_host:reply_host r.reply
  | _, None -> refuse t pkt Nonexistent
  | Some al, Some _ when al.al_seq = pkt.Packet.seq -> (
      (* Retransmission of a message we already hold. *)
      t.st.duplicates_filtered <- t.st.duplicates_filtered + 1;
      match al.al_state with
      | A_forwarded to_pid ->
          (* The exchange moved on: remind the sender where, so its
             retransmissions reach the kernel that can answer. *)
          send_fwd_notice t ~by:dst ~sender:src ~seq:pkt.Packet.seq ~to_pid
      | A_queued | A_received ->
          send_reply_pending t ~dst_host:reply_host ~src_pid:dst
            ~dst_pid:src ~seq:pkt.Packet.seq
      | A_replied _ -> (* served above *) ())
  | Some al, Some _ when pkt.Packet.seq < al.al_seq ->
      (* A stale straggler (delayed or reordered in the network) from
         an exchange this sender has already completed: sequence
         numbers from one sender only grow, so the alien's newer seq
         proves the sender moved on.  Filter it — delivering it as a
         fresh message would apply a non-idempotent operation twice. *)
      t.st.duplicates_filtered <- t.st.duplicates_filtered + 1
  | Some al, Some dd ->
      (* A new message from this sender supersedes its older one: the
         sender's alien takes it in place, so entries queued for the
         old seq go stale and the pool keeps its count. *)
      al.al_dst <- dst;
      al.al_seq <- pkt.Packet.seq;
      al.al_state <- A_queued;
      al.al_msg <- Packet.msg pkt;
      al.al_pkt <- pkt;
      accept t dd al
  | None, Some dd ->
      if Itbl.length t.aliens >= t.cfg.max_aliens && not (reclaim_one t)
      then begin
        (* No descriptors available: discard, tell sender to wait. *)
        t.st.alien_pool_full <- t.st.alien_pool_full + 1;
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
        accept t dd al
      end

(* ------------------------------------------------------------------ *)
(* Reply and Forward to an alien                                       *)

(* Send [pkt], process [d]'s reply to alien [al]: it acknowledges the
   remote Send, so the alien caches it for retransmitted Sends. *)
let reply_remote t (d : desc) (al : alien) pkt =
  trace_reply t d ~dst:pkt.Packet.dst_pid ~seq:al.al_seq ~remote:true;
  al.al_state <- A_replied { reply = pkt; at = Vsim.Engine.now t.eng };
  (* The alien/timer upkeep of the reply side is accounted by the
     asynchronous server bookkeeping charge below. *)
  send_pkt_gen t ~from:In_fiber
    ~dst_addr:(addr_for t ~dst_host:(Pid.host pkt.Packet.dst_pid))
    pkt t.reply_sent;
  Ok

let reply t (d : desc) msg dst ~seg =
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

let forward t (d : desc) msg ~from_pid ~to_pid =
  let m = model t in
  match Itbl.find_opt t.aliens (Pid.to_int from_pid) with
  | Some al when Pid.equal al.al_dst d.d_pid && unanswered al ->
      if Pid.host to_pid = t.khost then begin
        (* New server is local: retarget the alien and requeue. *)
        match find_proc t to_pid with
        | None ->
            remove t al;
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
