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
}

let default_config =
  let m = Vhw.Cost_model.sun_10mhz in
  {
    queue_capacity = 16;
    fixed_ns = m.Vhw.Cost_model.pkt_recv_handling_ns
               + m.Vhw.Cost_model.pkt_send_setup_ns;
    per_byte_ns = m.Vhw.Cost_model.nic_copy_ns_per_byte;
  }

(* Recent broadcast identities remembered for duplicate suppression. *)
let dedup_window = 128

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

(* A broadcast's identity is the frame's source, ethertype and payload
   bytes, so the window holds the frames themselves.  The memoised
   payload hash only picks the bucket and rules out most unequal
   frames; a match is confirmed byte for byte, so two broadcasts whose
   hashes collide are still told apart.  Nothing walks the window, so
   its bucket order is free. *)
module Seen = Hashtbl.Make (struct
  type t = Frame.t

  let equal (a : Frame.t) (b : Frame.t) =
    a == b
    || Int.equal (Frame.payload_hash a) (Frame.payload_hash b)
       && Int.equal a.Frame.src b.Frame.src
       && Int.equal a.Frame.ethertype b.Frame.ethertype
       && Bytes.equal a.Frame.payload b.Frame.payload

  let hash (f : Frame.t) =
    Frame.payload_hash f lxor (f.Frame.src lsl 8)
    lxor (f.Frame.ethertype lsl 16)
end)

type t = {
  eng : Vsim.Engine.t;
  addr : Addr.t;
  cfg : config;
  segments : Medium.t array;
  outs : out array;
  routes : int Vsim.Itbl.t;  (** host address -> segment index *)
  seen : unit Seen.t;  (** recent broadcasts *)
  seen_fifo : Frame.t Queue.t;  (** the same, oldest first *)
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

(* Broadcast identity must be a pure function of frame contents so every
   gateway that hears a copy computes the same key.  The payload hash is
   memoised on the frame, and a gateway forwards the frame it heard, so
   hearing its own re-broadcast on the far segment costs a lookup that
   ends at [==], not a second pass over the payload. *)
let seen t frame = Seen.mem t.seen frame

let remember t frame =
  Seen.add t.seen frame ();
  Queue.add frame t.seen_fifo;
  if Queue.length t.seen_fifo > dedup_window then
    Seen.remove t.seen (Queue.pop t.seen_fifo)

let rec pump t j =
  let out = t.outs.(j) in
  if (not out.busy) && not (Queue.is_empty out.q) then begin
    out.busy <- true;
    let frame = Queue.pop out.q in
    let cost = t.cfg.fixed_ns + (t.cfg.per_byte_ns * Frame.length frame) in
    ignore
      (Vsim.Engine.after_kind t.eng ~kind:k_forward cost (fun () ->
           if t.down then begin
             (* Crashed while the frame sat in the forwarding engine. *)
             t.s_down_drops <- t.s_down_drops + 1;
             out.busy <- false
           end
           else begin
             if Frame.is_broadcast frame then
               t.s_rebroadcast <- t.s_rebroadcast + 1
             else t.s_forwarded <- t.s_forwarded + 1;
             Medium.transmit ~bridged:true
               ~on_sent:(fun () ->
                 out.busy <- false;
                 pump t j)
               t.segments.(j) frame
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
    if seen t frame then t.s_suppressed <- t.s_suppressed + 1
    else begin
      remember t frame;
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
      seen = Seen.create dedup_window;
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
