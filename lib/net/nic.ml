type t = {
  naddr : Addr.t;
  ncpu : Vhw.Cpu.t;
  nmedium : Medium.t;
  eng : Vsim.Engine.t;
  receivers : (Frame.t -> unit) Vsim.Itbl.t;
  mutable crc_count : int;
  mutable tx_buf_busy : bool;
  tx_waiters : (unit -> unit) Queue.t;
}

let on_frame t frame =
  let model = Vhw.Cpu.model t.ncpu in
  let cost =
    model.Vhw.Cost_model.pkt_recv_handling_ns
    + (Frame.length frame * model.Vhw.Cost_model.nic_copy_ns_per_byte)
  in
  Vhw.Cpu.charge_k t.ncpu cost (fun () ->
      if frame.Frame.corrupted then begin
        t.crc_count <- t.crc_count + 1;
        if Vsim.Trace.tracing t.eng then
          Vsim.Trace.event t.eng
            (Vsim.Event.Packet_drop
               {
                 host = t.naddr;
                 reason = "crc";
                 bytes = Frame.length frame;
               })
      end
      else
        match Vsim.Itbl.find t.receivers frame.Frame.ethertype with
        | handler -> handler frame
        | exception Not_found -> ())

let create eng ~cpu ~medium ~addr =
  let t =
    {
      naddr = addr;
      ncpu = cpu;
      nmedium = medium;
      eng;
      receivers = Vsim.Itbl.create 4;
      crc_count = 0;
      tx_buf_busy = false;
      tx_waiters = Queue.create ();
    }
  in
  let (_ : Medium.port) = Medium.attach medium ~addr ~rx:(on_frame t) in
  t

let addr t = t.naddr
let cpu t = t.ncpu
let medium t = t.nmedium
let set_receiver t ~ethertype f = Vsim.Itbl.replace t.receivers ethertype f

let release_tx_buf t () =
  if Queue.is_empty t.tx_waiters then t.tx_buf_busy <- false
  else (Queue.pop t.tx_waiters) ()

(* CPU time to copy [payload] into the interface, after [pre_cost]. *)
let tx_cost t pre_cost payload =
  let model = Vhw.Cpu.model t.ncpu in
  pre_cost + model.Vhw.Cost_model.pkt_send_setup_ns
  + (Bytes.length payload * model.Vhw.Cost_model.nic_copy_ns_per_byte)

(* Put [payload], copied into the transmit buffer, on the wire. *)
let put t ~dst ~ethertype payload =
  Medium.transmit t.nmedium ~on_sent:(release_tx_buf t)
    (Frame.make ~src:t.naddr ~dst ~ethertype payload)

(* Copy [payload] into the transmit buffer, then put it on the wire. *)
let transmit t cost ~dst ~ethertype payload k =
  Vhw.Cpu.charge_k t.ncpu cost (fun () ->
      put t ~dst ~ethertype payload;
      k ())

let send_cost_k t cost ~dst ~ethertype payload k =
  if t.tx_buf_busy then begin
    Queue.add (fun () -> transmit t cost ~dst ~ethertype payload k) t.tx_waiters;
    if Vsim.Trace.tracing t.eng then
      Vsim.Trace.event t.eng
        (Vsim.Event.Nic_busy
           { host = t.naddr; queued = Queue.length t.tx_waiters })
  end
  else begin
    t.tx_buf_busy <- true;
    transmit t cost ~dst ~ethertype payload k
  end

let send_k t ?(pre_cost = 0) ~dst ~ethertype payload k =
  send_cost_k t (tx_cost t pre_cost payload) ~dst ~ethertype payload k

(* With the buffer free, the copy-out may run in place; otherwise the
   process parks and [k] runs in the copy's completion callback, before
   the resume, as it would for [send_k]. *)
let send_then t ?(pre_cost = 0) ~dst ~ethertype payload k =
  let cost = tx_cost t pre_cost payload in
  if (not t.tx_buf_busy) && Vhw.Cpu.charge_in_place t.ncpu cost then begin
    t.tx_buf_busy <- true;
    put t ~dst ~ethertype payload;
    k ()
  end
  else
    Vsim.Proc.suspend_tail (fun resume ->
        send_cost_k t cost ~dst ~ethertype payload (fun () ->
            k ();
            resume ()))

let send t ?pre_cost ~dst ~ethertype payload =
  send_then t ?pre_cost ~dst ~ethertype payload ignore

let crc_drops t = t.crc_count
