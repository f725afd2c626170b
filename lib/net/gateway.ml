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

(* A broadcast's identity: source, ethertype, length and payload hash.
   Nothing walks the window, so its bucket order is free. *)
type key = { k_src : int; k_type : int; k_len : int; k_hash : int }

module Seen = Hashtbl.Make (struct
  type t = key

  let equal a b =
    Int.equal a.k_hash b.k_hash && Int.equal a.k_src b.k_src
    && Int.equal a.k_type b.k_type && Int.equal a.k_len b.k_len

  let hash k = k.k_hash lxor (k.k_src lsl 8) lxor (k.k_type lsl 16)
end)

type t = {
  eng : Vsim.Engine.t;
  addr : Addr.t;
  cfg : config;
  segments : Medium.t array;
  outs : out array;
  routes : int Vsim.Itbl.t;  (** host address -> segment index *)
  seen : unit Seen.t;  (** recent broadcast identities *)
  seen_fifo : key Queue.t;  (** the same, oldest first *)
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
   hearing its own re-broadcast on the far segment costs a lookup, not a
   second pass over the payload. *)
let dedup_key (f : Frame.t) =
  {
    k_src = f.Frame.src;
    k_type = f.Frame.ethertype;
    k_len = Frame.length f;
    k_hash = Frame.payload_hash f;
  }

let seen t key = Seen.mem t.seen key

let remember t key =
  Seen.add t.seen key ();
  Queue.add key t.seen_fifo;
  if Queue.length t.seen_fifo > dedup_window then
    Seen.remove t.seen (Queue.pop t.seen_fifo)

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
