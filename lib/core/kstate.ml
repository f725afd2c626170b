open Ktypes
module Itbl = Vsim.Itbl

let status_to_string = function
  | Ok -> "ok"
  | Nonexistent -> "nonexistent"
  | Bad_address -> "bad-address"
  | No_permission -> "no-permission"
  | Too_big -> "too-big"
  | Retryable -> "retryable"
  | Dead -> "dead"

(* Status codes as carried in Nack packets' aux field. *)
let status_to_code = function
  | Ok -> 0
  | Nonexistent -> 1
  | Bad_address -> 2
  | No_permission -> 3
  | Too_big -> 4
  | Retryable -> 5
  | Dead -> 6

let refusal_of_code = function
  | 1 -> Some Nonexistent
  | 2 -> Some Bad_address
  | 3 -> Some No_permission
  | 4 -> Some Too_big
  | _ -> None

let max_packet_data = 1024
let max_seg_append = 512
let model t = Vhw.Cpu.model t.kcpu
let charge t ns = Vhw.Cpu.charge t.kcpu ns
let charge_k t ns k = Vhw.Cpu.charge_k t.kcpu ns k
let charge_async t ns = Vhw.Cpu.reserve t.kcpu ns

let next_seq t =
  t.next_seq <- t.next_seq + 1;
  t.next_seq

let[@inline] in_slot t slot =
  if slot < Array.length t.procs then Array.unsafe_get t.procs slot else None

(* The slot's descriptor is the pid's only while the whole pid matches:
   a pid of another host, or of an earlier generation of the slot, is
   not. *)
let find_proc t pid =
  match in_slot t (Pid.slot pid) with
  | Some d as found when Pid.equal d.d_pid pid -> (
      match d.d_state with
      | Dead -> None
      | Ready | Receiving _ | Awaiting_reply _ | Moving _ -> found)
  | Some _ | None -> None

(* The running fiber's owner is its process's pid (0 in a plain event
   callback, or a fiber the kernel did not spawn: slot 0 holds none); a
   fiber of another kernel names another host.  A destroyed process
   that runs on still finds itself, until its slot is handed out
   again. *)
let current t =
  let owner = Vsim.Proc.current_owner t.eng in
  match in_slot t (owner land (Pid.slots - 1)) with
  | Some d when Pid.to_int d.d_pid = owner -> d
  | Some _ | None ->
      Fmt.failwith "V kernel operation outside a process of host %d" t.khost

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

type sender = In_fiber | Queued | At_tail

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
  t.st.packets_sent <- t.st.packets_sent + 1;
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

let send_pkt_k t ?pre_cost ~tail ~dst_host pkt k =
  send_pkt_gen t ?pre_cost
    ~from:(if tail then At_tail else Queued)
    ~dst_addr:(addr_for t ~dst_host) pkt k

let send_pkt t ?pre_cost ~dst_host pkt =
  send_pkt_k t ?pre_cost ~tail:false ~dst_host pkt ignore

(* ------------------------------------------------------------------ *)
(* Waits and grants                                                    *)

(* Tests on [pstate] match rather than use [=], which on a type with a
   non-constant constructor is a C call to polymorphic compare. *)
let awaiting_reply state who =
  match state with
  | Awaiting_reply w -> Pid.equal w.peer who
  | Ready | Receiving _ | Moving _ | Dead -> false

let move_alive (mo : move_out) =
  match mo.mo_desc.d_state with
  | Moving m -> m == mo
  | Ready | Receiving _ | Awaiting_reply _ | Dead -> false

let unanswered al =
  match al.al_state with
  | A_queued | A_received -> true
  | A_replied _ | A_forwarded _ -> false

let grant_covers (g : grant) ~ptr ~len ~need_write =
  (match g.g_access, need_write with
  | (Msg.Write_only | Msg.Read_write), true -> true
  | (Msg.Read_only | Msg.Read_write), false -> true
  | Msg.Read_only, true | Msg.Write_only, false -> false)
  && ptr >= g.g_ptr
  && ptr + len <= g.g_ptr + g.g_len

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

let take_entry t (d : desc) (entry : queued) ~msg ~seg =
  Msg.blit ~src:entry.q_msg ~dst:msg;
  let count = deliver_segment t ~entry ~seg ~recv:d in
  if not entry.q_local then begin
    match Itbl.find t.aliens (Pid.to_int entry.q_src) with
    | al -> al.al_state <- A_received
    | exception Not_found -> ()
  end;
  count

let received t (d : desc) (entry : queued) count =
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

let try_deliver t ~tail (d : desc) =
  match d.d_state with
  | Ready | Awaiting_reply _ | Moving _ | Dead -> ()
  | Receiving r -> (
      match pop_valid ?from:r.from t d with
      | None -> ()
      | Some entry ->
          d.d_state <- Ready;
          let count = take_entry t d entry ~msg:r.msg ~seg:r.seg in
          let k = r.k in
          (if tail then Vhw.Cpu.charge_tail else Vhw.Cpu.charge_k)
            t.kcpu (model t).Vhw.Cost_model.context_switch_ns (fun () ->
              k (received t d entry count)))

let trace_reply t (d : desc) ~dst ~seq ~remote =
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Reply
         {
           host = t.khost;
           src = Pid.to_int d.d_pid;
           dst = Pid.to_int dst;
           seq;
           remote;
         })
