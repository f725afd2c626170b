open Ktypes
open Kstate
module Itbl = Vsim.Itbl

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
      let sample_ns = Exchange.karn_sample t gw.gw_retx in
      Rto.note_success t.rto ~dst:gw.gw_retx.rx_dst ~sample_ns;
      if not (Pid.is_nil pkt.Packet.src_pid) then
        Rto.note_success t.rto ~dst:(Pid.host pkt.Packet.src_pid) ~sample_ns;
      Exchange.getpid_finish t gw (Some found)

let forget_pid t ~logical_id = Itbl.remove t.getpid_cache logical_id

let forget_bindings t pid =
  let stale =
    Itbl.fold
      (fun lid p acc -> if Pid.equal p pid then lid :: acc else acc)
      t.getpid_cache []
  in
  List.iter (Itbl.remove t.getpid_cache) stale

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
                            Exchange.new_retx ~dst:(getpid_dst ~logical_id)
                              ~since:(Vsim.Engine.now t.eng);
                          gw_waiters = [ resume ];
                        }
                      in
                      Itbl.replace t.getpid_waits logical_id gw;
                      Exchange.transmit t (Getpid gw))))
