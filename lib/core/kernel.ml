open Ktypes
open Kstate
module Itbl = Vsim.Itbl

type status = Ktypes.status =
  | Ok
  | Nonexistent
  | Bad_address
  | No_permission
  | Too_big
  | Retryable
  | Dead

type scope = Ktypes.scope = Local | Remote | Any
type rto_mode = Rto.mode = Fixed | Adaptive

type config = Ktypes.config = {
  retransmit_timeout_ns : int;
  max_retries : int;
  max_aliens : int;
  rto_mode : rto_mode;
  ip_header_mode : bool;
  process_server_mode : bool;
}

type stats = Ktypes.stats = {
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

type t = Ktypes.t

let status_to_string = status_to_string
let status_to_code = status_to_code
let pp_status fmt s = Format.pp_print_string fmt (status_to_string s)
let max_seg_append = max_seg_append

let default_config =
  {
    retransmit_timeout_ns = Vsim.Time.ms 200;
    max_retries = 5;
    max_aliens = 64;
    rto_mode = Fixed;
    ip_header_mode = false;
    process_server_mode = false;
  }

(* Address-space size for new processes. *)
let default_mem_size = 256 * 1024

let engine t = t.eng
let cpu t = t.kcpu
let host t = t.khost
let config t = t.cfg
let host_suspected t ~host = Rto.suspected t.rto ~dst:host
let rto_estimate_ns t ~dst_host = Rto.base_ns t.rto ~dst:dst_host ~bytes:0

(* ------------------------------------------------------------------ *)
(* Receive path: dispatch                                              *)

let drop t ~reason ~bytes =
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Packet_drop { host = t.khost; reason; bytes })

(* A NACK may target a blocked sender or an in-flight data transfer.  A
   Nonexistent one proves the Send's pid gone, so any GetPid binding
   still naming it goes too. *)
let handle_nack t (pkt : Packet.t) =
  match refusal_of_code pkt.Packet.aux with
  | None ->
      drop t
        ~reason:(Printf.sprintf "decode: nack code %d" pkt.Packet.aux)
        ~bytes:(Packet.wire_length pkt)
  | Some st -> (
      match find_proc t pkt.Packet.dst_pid with
      | Some { d_state = Moving mo; _ } when mo.mo_seq = pkt.Packet.seq ->
          Exchange.move_finish t mo st
      | Some { d_state = Awaiting_reply { rsend = Some rs; _ }; _ }
        when rs.rs_pkt.Packet.seq = pkt.Packet.seq ->
          if st = Nonexistent then
            Registry.forget_bindings t rs.rs_pkt.Packet.dst_pid;
          Exchange.finish_send t ~tail:true rs st
      | Some _ | None -> ())

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
    | Error e -> drop t ~reason:("decode: " ^ e) ~bytes:len
    | Ok pkt ->
        t.st.packets_received <- t.st.packets_received + 1;
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
            | Packet.Send -> Aliens.handle_send_pkt t pkt
            | Packet.Reply -> Exchange.handle_reply_pkt t pkt
            | Packet.Reply_pending -> Exchange.handle_reply_pending t pkt
            | Packet.Nack -> handle_nack t pkt
            | Packet.Data_mt -> Trains.handle_data_mt t pkt
            | Packet.Data_mf -> Trains.handle_data_mf t pkt
            | Packet.Data_ack -> Trains.handle_data_ack t pkt
            | Packet.Data_nak -> Trains.handle_data_nak t pkt
            | Packet.Move_from_req -> Trains.handle_move_from_req t pkt
            | Packet.Getpid_req -> Registry.handle_getpid_req t pkt
            | Packet.Getpid_reply -> Registry.handle_getpid_reply t pkt
            | Packet.Fwd_notice -> Exchange.handle_fwd_notice t pkt
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
      procs = Array.make 8 None;
      last_slot = 0;
      aliens = Itbl.create 16;
      registry = Itbl.create 16;
      getpid_cache = Itbl.create 16;
      getpid_waits = Itbl.create 16;
      rto =
        Rto.create eng ~host ~model:(Vhw.Cpu.model cpu) ~mode:config.rto_mode
          ~fixed_ns:config.retransmit_timeout_ns;
      down = false;
      reply_sent = ignore;
      restart_hooks = [];
      next_seq = 0;
      st =
        {
          packets_sent = 0;
          packets_received = 0;
          retransmissions = 0;
          timeouts_fired = 0;
          duplicates_filtered = 0;
          reply_pendings_sent = 0;
          nonexistent_nacks_sent = 0;
          gap_naks_sent = 0;
          aliens_created = 0;
          alien_pool_full = 0;
          aliens_reclaimed = 0;
          hosts_suspected = 0;
          sends_local = 0;
          sends_remote = 0;
          moves_local = 0;
          moves_remote = 0;
        };
    }
  in
  t.reply_sent <-
    (fun () -> charge_async t (model t).Vhw.Cost_model.server_bookkeep_ns);
  (* A closure over [t] is a word smaller than the partial application
     [handle_frame t], and calls [handle_frame] directly. *)
  Vnet.Nic.set_receiver nic ~ethertype:Vnet.Frame.ethertype_kernel
    (fun frame -> handle_frame t frame);
  t

let create eng ~cpu ~nic ~host ?(config = default_config) () =
  make_kernel eng ~cpu ~nic ~host ~config ~addressing:Direct

let create_mapped eng ~cpu ~nic ~host ?(config = default_config) () =
  make_kernel eng ~cpu ~nic ~host ~config ~addressing:Mapped

(* ------------------------------------------------------------------ *)
(* Processes                                                           *)

(* The first free slot after the one handed out last, round the table:
   a never-used slot while any remain, since they are handed out in
   order, and then each freed slot in turn, so a slot's generation
   wraps only after every other free slot has been handed out as
   often.  Slot 0 is never handed out. *)
let claim_slot t =
  let rec probe slot left =
    if left = 0 then failwith "Kernel.spawn: out of process slots"
    else
      let slot = if slot = Pid.slots then 1 else slot in
      match in_slot t slot with
      | None -> (slot, Pid.make ~host:t.khost ~local:slot)
      | Some { d_state = Dead; d_pid; _ } -> (slot, Pid.next_generation d_pid)
      | Some _ -> probe (slot + 1) (left - 1)
  in
  probe (t.last_slot + 1) (Pid.slots - 1)

let spawn t ?(name = "process") ?mem_size body =
  if t.down then invalid_arg "Kernel.spawn: host is down";
  let slot, pid = claim_slot t in
  let mem_size = Option.value mem_size ~default:default_mem_size in
  let p =
    Vsim.Proc.spawn t.eng ~name ~owner:(Pid.to_int pid) (fun () -> body pid)
  in
  let d =
    {
      d_pid = pid;
      d_fiber = p;
      d_name = name;
      d_mem = Mem.create ~size:mem_size;
      d_queue = Queue.create ();
      d_state = Ready;
      d_train_gen = 0;
      d_mt_last = -1;
    }
  in
  let n = Array.length t.procs in
  if slot >= n then begin
    let procs = Array.make (2 * n) None in
    Array.blit t.procs 0 procs 0 n;
    t.procs <- procs
  end;
  t.procs.(slot) <- Some d;
  t.last_slot <- slot;
  pid

(* [f] on each slot's descriptor, dead or alive, in slot order. *)
let iter_procs t f =
  Array.iter (function Some d -> f d | None -> ()) t.procs

let destroy t pid =
  match find_proc t pid with
  | None -> ()
  | Some d ->
      (* Its own remote exchanges die with it, unresumed: nothing would
         deliver their answers, and their retries would only wear down
         the failure detector's view of live peers. *)
      Exchange.stop_exchange t d;
      d.d_state <- Dead;
      (* Fail everyone who was talking to it. *)
      Queue.iter
        (fun entry ->
          if entry.q_local then (
            match find_proc t entry.q_src with
            | Some sender when awaiting_reply sender.d_state pid ->
                Exchange.wake_sender t ~tail:false ~ns:0 sender Nonexistent
            | Some _ | None -> ())
          else
            match Itbl.find_opt t.aliens (Pid.to_int entry.q_src) with
            | Some al when al.al_seq = entry.q_seq ->
                Aliens.remove t al;
                Aliens.send_nack t ~dst_host:(Pid.host entry.q_src)
                  ~src_pid:pid ~dst_pid:entry.q_src ~seq:entry.q_seq
                  Nonexistent
            | Some _ | None -> ())
        d.d_queue;
      Queue.clear d.d_queue;
      (* Fail ReceiveSpecific waiters blocked on the destroyed process.
         They resume in slot order.  The order shows only with two
         waiters on one process; no rig, workload or checker scenario
         waits in ReceiveSpecific. *)
      iter_procs t (fun w ->
          match w.d_state with
          | Receiving { from = Some from; k; _ } when Pid.equal from pid ->
              w.d_state <- Ready;
              charge_k t 0 (fun () -> k (Pid.nil, 0))
          | Receiving _ | Ready | Awaiting_reply _ | Moving _ | Dead -> ())

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
   The slot table and the sequence counter deliberately survive: every
   process is dead but keeps its slot, and the next spawns take the
   slots after the last one handed out, so a pid of a pre-crash
   incarnation stays dead until its slot's generation wraps, and a
   stale client addressing it after restart gets a Nonexistent NACK
   instead of reaching an unrelated new process. *)
let crash t =
  if not t.down then begin
    t.down <- true;
    (* Killing a fiber wakes its joiners, in slot order; no code joins
       a kernel's fiber, so the order reaches no output.  The walks
       otherwise only cancel timers, which leaves no trace of their
       order. *)
    iter_procs t (fun d ->
        Vsim.Proc.kill d.d_fiber;
        Exchange.stop_exchange t d;
        d.d_state <- Dead);
    Itbl.iter (fun _ gw -> Exchange.stop t gw.gw_retx) t.getpid_waits;
    Itbl.reset t.aliens;
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
    t.st.sends_local <- t.st.sends_local + 1;
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
    t.st.sends_remote <- t.st.sends_remote + 1;
    charge t m.Vhw.Cost_model.remote_op_extra_ns;
    Vsim.Proc.suspend_tail (fun k ->
        let rs =
          Exchange.new_rsend d msg ~dst ~seq ~since:(Vsim.Engine.now t.eng)
        in
        d.d_state <- await ~peer:dst msg k (Some rs);
        Exchange.launch_send t ~tail:true rs)
  end

let receive_gen ?from t msg ~seg =
  let d = current t in
  charge t (model t).Vhw.Cost_model.receive_op_ns;
  match pop_valid ?from t d with
  | Some entry ->
      (* Message already queued: no blocking, no context switch. *)
      received t d entry (take_entry t d entry ~msg ~seg)
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

let reply_gen t msg dst ~seg =
  let d = current t in
  let m = model t in
  let seg_cost =
    match seg with Some _ -> m.Vhw.Cost_model.segment_handling_ns | None -> 0
  in
  charge t (m.Vhw.Cost_model.reply_op_ns + seg_cost);
  if Pid.host dst <> t.khost then Aliens.reply t d msg dst ~seg
  else
    match find_proc t dst with
    | Some ({ d_state = Awaiting_reply { peer; buf; _ }; _ } as dd)
      when Pid.equal peer d.d_pid -> (
        let seg_status =
          match seg with
          | None -> Ok
          | Some (destptr, segptr, segsize) ->
              if not (Mem.valid d.d_mem ~pos:segptr ~len:segsize) then
                Bad_address
              else if
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
        in
        match seg_status with
        | Ok ->
            trace_reply t d ~dst ~seq:0 ~remote:false;
            Msg.blit ~src:msg ~dst:buf;
            Exchange.wake_sender t ~tail:false
              ~ns:m.Vhw.Cost_model.context_switch_ns dd Ok;
            Ok
        | (Nonexistent | Bad_address | No_permission | Too_big | Retryable
          | Dead) as err ->
            err)
    | Some _ | None -> No_permission

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
  if Pid.host from_pid <> t.khost then
    (* The sender is an alien: it sent from another workstation. *)
    Aliens.forward t d msg ~from_pid ~to_pid
  else
    match find_proc t from_pid with
    | Some ({ d_state = Awaiting_reply w; _ } as fd)
      when Pid.equal w.peer d.d_pid ->
        w.peer <- to_pid;
        w.grant <- grant_of_msg msg;
        if Pid.host to_pid = t.khost then begin
          match find_proc t to_pid with
          | None ->
              Exchange.wake_sender t ~tail:false ~ns:0 fd Nonexistent;
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
            Exchange.new_rsend fd msg ~dst:to_pid ~seq:(next_seq t) ~since:(-1)
          in
          w.rsend <- Some rs;
          Exchange.launch_send t ~tail:false rs;
          Ok
        end
    | Some _ | None -> No_permission

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
    if remote then t.st.moves_remote <- t.st.moves_remote + 1
    else t.st.moves_local <- t.st.moves_local + 1;
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
        | None -> Trains.move t d dir ~peer ~ptr ~peer_ptr ~count ~seq)
  end

let move_to t ~dst_pid ~dst ~src ~count =
  move t To ~peer:dst_pid ~dst ~src ~count

let move_from t ~src_pid ~dst ~src ~count =
  move t From ~peer:src_pid ~dst ~src ~count

(* ------------------------------------------------------------------ *)
(* Naming and time                                                     *)

let set_pid = Registry.set_pid
let get_pid = Registry.get_pid
let forget_pid = Registry.forget_pid

let get_time t =
  let (_ : desc) = current t in
  charge t (model t).Vhw.Cost_model.syscall_ns;
  Vsim.Engine.now t.eng

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

(* A copy: the kernel bumps its own record in place. *)
let stats t = { t.st with packets_sent = t.st.packets_sent }

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

(* Counts only: the walks' order reaches no output. *)
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
  iter_procs t (fun d ->
      match d.d_state with
      | Awaiting_reply { grant; rsend; _ } -> (
          (match rsend with Some _ -> incr sends_blocked | None -> ());
          match grant with
          | Some { g_in = Some train; _ } ->
              incr mt_ins_total;
              if not (Trains.complete train) then incr mt_ins_incomplete
          | Some { g_in = None; _ } | None -> ())
      | Moving { mo_train = Out _; _ } -> incr mt_outs_pending
      | Moving { mo_train = In _; _ } -> incr mf_outs_pending
      | Ready | Receiving _ | Dead -> ());
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
