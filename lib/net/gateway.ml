(* A store-and-forward internetwork gateway bridging Ethernet segments.

   The gateway attaches a promiscuous tap to every segment, routes
   unicast frames by a host -> segment table, and re-broadcasts
   broadcast frames (GetPid, boot multicast) onto every other segment
   with duplicate suppression so that a frame circulating among several
   gateways is forwarded at most once per segment.  Forwarding is
   store-and-forward: each frame pays a per-frame CPU cost (receive
   handling + copy + send setup, from the cost model) before being
   queued on the output segment; the per-output queue is bounded and
   overflow is dropped and accounted. *)

type config = {
  queue_capacity : int;  (** bounded output queue, per segment *)
  fixed_ns : int;  (** per-frame store-and-forward CPU *)
  per_byte_ns : int;  (** per-byte copy cost through the gateway *)
  dedup_window : int;  (** recent broadcast identities remembered *)
}

let config_of_model (m : Vhw.Cost_model.t) =
  {
    queue_capacity = 16;
    fixed_ns = m.Vhw.Cost_model.pkt_recv_handling_ns
               + m.Vhw.Cost_model.pkt_send_setup_ns;
    per_byte_ns = m.Vhw.Cost_model.nic_copy_ns_per_byte;
    dedup_window = 128;
  }

let default_config = config_of_model Vhw.Cost_model.sun_10mhz

type stats = {
  received : int;
  forwarded : int;
  rebroadcast : int;
  queue_drops : int;
  unrouted : int;
  suppressed : int;
  crc_drops : int;
  down_drops : int;
}

type out = { q : Frame.t Queue.t; mutable busy : bool }

type t = {
  eng : Vsim.Engine.t;
  addr : Addr.t;
  cfg : config;
  segments : Medium.t array;
  outs : out array;
  routes : int Vsim.Itbl.t;  (** host address -> segment index *)
  seen : (int * int * int * int, unit) Hashtbl.t;
      (** recent broadcast identities: (src, ethertype, len, payload hash) *)
  seen_fifo : (int * int * int * int) Queue.t;
  mutable down : bool;
  mutable s_received : int;
  mutable s_forwarded : int;
  mutable s_rebroadcast : int;
  mutable s_queue_drops : int;
  mutable s_unrouted : int;
  mutable s_suppressed : int;
  mutable s_crc_drops : int;
  mutable s_down_drops : int;
}

let k_forward = Vsim.Eventq.Kind.intern "net.gw_forward"

(* FNV-1a over the payload; broadcast identity must be a pure function of
   frame contents so every gateway that hears a copy computes the same key. *)
let payload_hash b =
  let h = ref 0x811c9dc5 in
  Bytes.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3FFFFFFF)
    b;
  !h

let dedup_key (f : Frame.t) =
  (f.Frame.src, f.Frame.ethertype, Bytes.length f.Frame.payload,
   payload_hash f.Frame.payload)

let seen t key = Hashtbl.mem t.seen key

let remember t key =
  Hashtbl.replace t.seen key ();
  Queue.add key t.seen_fifo;
  if Queue.length t.seen_fifo > t.cfg.dedup_window then
    Hashtbl.remove t.seen (Queue.pop t.seen_fifo)

let rec pump t j =
  let out = t.outs.(j) in
  if (not out.busy) && not (Queue.is_empty out.q) then begin
    out.busy <- true;
    let frame = Queue.pop out.q in
    let cost = t.cfg.fixed_ns + (t.cfg.per_byte_ns * Frame.length frame) in
    ignore
      (Vsim.Engine.after t.eng ~kind:k_forward cost (fun () ->
           if t.down then begin
             (* Crashed while the frame sat in the forwarding engine. *)
             t.s_down_drops <- t.s_down_drops + 1;
             out.busy <- false
           end
           else begin
             let copy =
               Frame.make ~src:frame.Frame.src ~dst:frame.Frame.dst
                 ~ethertype:frame.Frame.ethertype frame.Frame.payload
             in
             if Frame.is_broadcast copy then
               t.s_rebroadcast <- t.s_rebroadcast + 1
             else t.s_forwarded <- t.s_forwarded + 1;
             Medium.transmit ~bridged:true
               ~on_sent:(fun () ->
                 out.busy <- false;
                 pump t j)
               t.segments.(j) copy
           end))
  end

let enqueue t j frame =
  let out = t.outs.(j) in
  if Queue.length out.q >= t.cfg.queue_capacity then
    t.s_queue_drops <- t.s_queue_drops + 1
  else begin
    Queue.add frame out.q;
    pump t j
  end

let on_frame t seg (frame : Frame.t) =
  t.s_received <- t.s_received + 1;
  if t.down then t.s_down_drops <- t.s_down_drops + 1
  else if frame.Frame.corrupted then
    (* A real bridge checks the CRC before forwarding. *)
    t.s_crc_drops <- t.s_crc_drops + 1
  else if Frame.is_broadcast frame then begin
    let key = dedup_key frame in
    if seen t key then t.s_suppressed <- t.s_suppressed + 1
    else begin
      remember t key;
      Array.iteri (fun j _ -> if j <> seg then enqueue t j frame) t.segments
    end
  end
  else
    match Vsim.Itbl.find_opt t.routes frame.Frame.dst with
    | None -> t.s_unrouted <- t.s_unrouted + 1
    | Some j when j = seg -> ()  (* local traffic; nothing to do *)
    | Some j -> enqueue t j frame

let create ?(config = default_config) eng ~addr segments =
  if List.length segments < 2 then
    invalid_arg "Gateway.create: need at least two segments";
  let segments = Array.of_list segments in
  let t =
    {
      eng;
      addr;
      cfg = config;
      segments;
      outs =
        Array.map (fun _ -> { q = Queue.create (); busy = false }) segments;
      routes = Vsim.Itbl.create 32;
      seen = Hashtbl.create 64;
      seen_fifo = Queue.create ();
      down = false;
      s_received = 0;
      s_forwarded = 0;
      s_rebroadcast = 0;
      s_queue_drops = 0;
      s_unrouted = 0;
      s_suppressed = 0;
      s_crc_drops = 0;
      s_down_drops = 0;
    }
  in
  Array.iteri
    (fun i medium ->
      ignore (Medium.attach_tap medium ~addr ~rx:(fun f -> on_frame t i f)))
    segments;
  t

let addr t = t.addr

let add_route t ~host ~segment =
  if segment < 0 || segment >= Array.length t.segments then
    invalid_arg "Gateway.add_route: no such segment";
  Vsim.Itbl.replace t.routes host segment

let route t host = Vsim.Itbl.find_opt t.routes host

let crash t =
  t.down <- true;
  (* Power loss: whatever sat in the forwarding queues is gone. *)
  Array.iter
    (fun out ->
      t.s_down_drops <- t.s_down_drops + Queue.length out.q;
      Queue.clear out.q)
    t.outs

let restart t = t.down <- false
let is_down t = t.down

let stats t =
  {
    received = t.s_received;
    forwarded = t.s_forwarded;
    rebroadcast = t.s_rebroadcast;
    queue_drops = t.s_queue_drops;
    unrouted = t.s_unrouted;
    suppressed = t.s_suppressed;
    crc_drops = t.s_crc_drops;
    down_drops = t.s_down_drops;
  }
