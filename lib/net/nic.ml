type t = {
  naddr : Addr.t;
  ncpu : Vhw.Cpu.t;
  nmedium : Medium.t;
  eng : Vsim.Engine.t;
  receivers : (Frame.t -> unit) Vsim.Itbl.t;
  mutable rx_count : int;
  mutable crc_count : int;
  mutable tx_count : int;
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
      else begin
        t.rx_count <- t.rx_count + 1;
        match Vsim.Itbl.find t.receivers frame.Frame.ethertype with
        | handler -> handler frame
        | exception Not_found -> ()
      end)

let create eng ~cpu ~medium ~addr =
  let t =
    {
      naddr = addr;
      ncpu = cpu;
      nmedium = medium;
      eng;
      receivers = Vsim.Itbl.create 4;
      rx_count = 0;
      crc_count = 0;
      tx_count = 0;
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

let send_k t ?(pre_cost = 0) ~dst ~ethertype payload k =
  let model = Vhw.Cpu.model t.ncpu in
  let cost =
    pre_cost + model.Vhw.Cost_model.pkt_send_setup_ns
    + (Bytes.length payload * model.Vhw.Cost_model.nic_copy_ns_per_byte)
  in
  let go () =
    Vhw.Cpu.charge_k t.ncpu cost (fun () ->
        t.tx_count <- t.tx_count + 1;
        Medium.transmit t.nmedium ~on_sent:(release_tx_buf t)
          (Frame.make ~src:t.naddr ~dst ~ethertype payload);
        k ())
  in
  if t.tx_buf_busy then begin
    Queue.add go t.tx_waiters;
    if Vsim.Trace.tracing t.eng then
      Vsim.Trace.event t.eng
        (Vsim.Event.Nic_busy
           { host = t.naddr; queued = Queue.length t.tx_waiters })
  end
  else begin
    t.tx_buf_busy <- true;
    go ()
  end

let send t ?pre_cost ~dst ~ethertype payload =
  Vsim.Proc.suspend ~reason:"nic-tx" (fun resume ->
      send_k t ?pre_cost ~dst ~ethertype payload resume)

let frames_received t = t.rx_count
let crc_drops t = t.crc_count
let frames_sent t = t.tx_count
