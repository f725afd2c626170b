type config = {
  name : string;
  bit_rate_bps : int;
  latency_ns : int;
}

(* Both Ethernets share the collision window, the bus occupancy after a
   collision, and the largest frame. *)
let slot_ns = 10_000
let jam_ns = 3_000
let max_payload = 1536

let config_3mb =
  {
    name = "3Mb-Ethernet";
    bit_rate_bps = 2_940_000;
    latency_ns = 30_000;
  }

let config_10mb =
  {
    name = "10Mb-Ethernet";
    bit_rate_bps = 10_000_000;
    latency_ns = 15_000;
  }

let byte_time_ns cfg = 8_000_000_000 / cfg.bit_rate_bps

type port = {
  paddr : Addr.t;
  prx : Frame.t -> unit;
  mutable others : port list option;
      (** the medium's [everyone] without this port, built by this
          port's first broadcast after a [refresh] *)
}

type pending = {
  frame : Frame.t;
  mutable attempts : int;
  on_sent : unit -> unit;
}

type stats = {
  attempted : int;
  targeted : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  corrupted : int;
  collisions : int;
  excessive : int;
  tx_busy_ns : int;
  bits_sent : int;
}

type current = {
  who : pending;
  started : Vsim.Time.t;
  finish : Vsim.Engine.handle;
}

type t = {
  cfg : config;
  eng : Vsim.Engine.t;
  rng : Vsim.Rng.t;
  ports : port Vsim.Itbl.t;
  taps : port Vsim.Itbl.t;
      (** promiscuous stations (bridges): targeted by every frame *)
  mutable everyone : port list;
      (** every port, in broadcast order, then [tap_list] *)
  mutable tap_list : port list;  (** every tap, in delivery order *)
  mutable fanout_stale : bool;  (** a station attached since they were built *)
  waiters : pending Queue.t;
  mutable busy_until : Vsim.Time.t;
  mutable current : current option;
  mutable flt : Fault.t;
  mutable frame_no : int;  (** completed transmissions, for scripted actions *)
  mutable held : Frame.t option;  (** frame parked by a Reorder action *)
  mutable held_flush : Vsim.Engine.handle option;
  mutable host_handler : ((unit -> unit) * (unit -> unit)) option;
      (** (crash, restart) callbacks for scripted host events *)
  mutable s_attempted : int;
  mutable s_targeted : int;
  mutable s_delivered : int;
  mutable s_dropped : int;
  mutable s_duplicated : int;
  mutable s_corrupted : int;
  mutable s_collisions : int;
  mutable s_excessive : int;
  mutable s_tx_busy : int;
  mutable s_bits : int;
}

type mark = { at : Vsim.Time.t; busy_then : int; bits_then : int }

let k_deliver = Vsim.Eventq.Kind.intern "net.deliver"
let k_drop = Vsim.Eventq.Kind.intern "net.drop"
let k_reorder_flush = Vsim.Eventq.Kind.intern "net.reorder_flush"
let k_drain = Vsim.Eventq.Kind.intern "net.drain"
let k_tx_done = Vsim.Eventq.Kind.intern "net.tx_done"
let k_backoff = Vsim.Eventq.Kind.intern "net.backoff"
let k_host_restart = Vsim.Eventq.Kind.intern "net.host_restart"

let create eng cfg =
  {
    cfg;
    eng;
    rng = Vsim.Rng.split (Vsim.Engine.rng eng);
    ports = Vsim.Itbl.create 16;
    taps = Vsim.Itbl.create 4;
    everyone = [];
    tap_list = [];
    fanout_stale = false;
    waiters = Queue.create ();
    busy_until = 0;
    current = None;
    flt = Fault.none;
    frame_no = 0;
    held = None;
    held_flush = None;
    host_handler = None;
    s_attempted = 0;
    s_targeted = 0;
    s_delivered = 0;
    s_dropped = 0;
    s_duplicated = 0;
    s_corrupted = 0;
    s_collisions = 0;
    s_excessive = 0;
    s_tx_busy = 0;
    s_bits = 0;
  }

let config t = t.cfg
let engine t = t.eng
let set_fault t f = t.flt <- f
let set_host_handler t ~crash ~restart = t.host_handler <- Some (crash, restart)

let attach t ~addr ~rx =
  if not (Addr.is_valid addr) || Addr.is_broadcast addr then
    invalid_arg "Medium.attach: bad address";
  if Vsim.Itbl.mem t.ports addr || Vsim.Itbl.mem t.taps addr then
    Fmt.invalid_arg "Medium.attach: address %d already attached" addr;
  let port = { paddr = addr; prx = rx; others = None } in
  Vsim.Itbl.replace t.ports addr port;
  t.fanout_stale <- true;
  port

let attach_tap t ~addr ~rx =
  if not (Addr.is_valid addr) || Addr.is_broadcast addr then
    invalid_arg "Medium.attach_tap: bad address";
  if Vsim.Itbl.mem t.ports addr || Vsim.Itbl.mem t.taps addr then
    Fmt.invalid_arg "Medium.attach_tap: address %d already attached" addr;
  let port = { paddr = addr; prx = rx; others = None } in
  Vsim.Itbl.replace t.taps addr port;
  t.fanout_stale <- true;
  port

let stats t =
  {
    attempted = t.s_attempted;
    targeted = t.s_targeted;
    delivered = t.s_delivered;
    dropped = t.s_dropped;
    duplicated = t.s_duplicated;
    corrupted = t.s_corrupted;
    collisions = t.s_collisions;
    excessive = t.s_excessive;
    tx_busy_ns = t.s_tx_busy;
    bits_sent = t.s_bits;
  }

let mark t =
  { at = Vsim.Engine.now t.eng; busy_then = t.s_tx_busy; bits_then = t.s_bits }

let utilization_since t m =
  let elapsed = Vsim.Engine.now t.eng - m.at in
  if elapsed <= 0 then 0.0
  else float_of_int (t.s_tx_busy - m.busy_then) /. float_of_int elapsed

let bits_since t m = t.s_bits - m.bits_then

(* Fault injection at delivery: the frame either vanishes (drop) or arrives
   with a bad CRC (corrupt / hardware bug). *)
let deliver_to t frame (port : port) =
  if Vsim.Rng.bernoulli t.rng t.flt.Fault.drop_prob then begin
    t.s_dropped <- t.s_dropped + 1;
    if Vsim.Trace.tracing t.eng then
      Vsim.Trace.event t.eng
        (Vsim.Event.Packet_drop
           {
             host = port.paddr;
             reason = "fault";
             bytes = Frame.length frame;
           })
  end
  else begin
    let bug =
      t.flt.Fault.collision_bug
      && Vsim.Rng.bernoulli t.rng t.flt.Fault.bug_prob
    in
    t.s_delivered <- t.s_delivered + 1;
    if bug || Vsim.Rng.bernoulli t.rng t.flt.Fault.corrupt_prob then begin
      t.s_corrupted <- t.s_corrupted + 1;
      port.prx (Frame.corrupt frame)
    end
    else port.prx frame
  end

(* The stations a completed transmission is aimed at.  An unattached
   unicast destination with no tap listening yields the empty list: those
   bits fall on the floor and are not counted as targeted.  Taps
   (promiscuous bridge ports) hear every frame they did not source
   themselves, appended after the regular ports so that a tapless medium
   keeps the exact delivery order it had before taps existed.

   A broadcast reaches the ports in the reverse of the port table's walk
   order, and taps follow in walk order; that is the order in which
   folding each table into a list once put them.  [everyone] and
   [tap_list] hold those orders, rebuilt by the first frame after an
   attach (so attaching n stations costs one rebuild, not n), and a
   frame only drops its source from them.  No address is both a port and
   a tap, so dropping the source from the joined list drops it from the
   half it is in.  [Vsim.Itbl] walks a table in the order a polymorphic
   [Hashtbl] would, so the order is the one the per-frame folds gave.
   An attached station's broadcasts all reach [everyone] without it, so
   that list is kept on its port ([others]) from its first broadcast
   until the next rebuild, which forgets every port's. *)
let refresh t =
  if t.fanout_stale then begin
    t.fanout_stale <- false;
    t.tap_list <-
      List.rev (Vsim.Itbl.fold (fun _ port acc -> port :: acc) t.taps []);
    t.everyone <-
      Vsim.Itbl.fold (fun _ port acc -> port :: acc) t.ports t.tap_list;
    List.iter (fun port -> port.others <- None) t.everyone
  end

(* [ports] without the one at [addr], sharing the tail after it, or
   [ports] itself if none is there (a frame bridged in from another
   segment). *)
let rec without addr = function
  | [] -> []
  | port :: rest as ports ->
      if Addr.equal port.paddr addr then rest
      else
        let rest' = without addr rest in
        if rest' == rest then ports else port :: rest'

let others t port =
  match port.others with
  | Some ports -> ports
  | None ->
      let ports = without port.paddr t.everyone in
      port.others <- Some ports;
      ports

let targets t frame =
  refresh t;
  let src = frame.Frame.src in
  if Frame.is_broadcast frame then
    match Vsim.Itbl.find t.ports src with
    | port -> others t port
    | exception Not_found ->
        (* A broadcast bridged in from another segment has its source in
           neither table, so nothing is dropped: skip the walk. *)
        if Vsim.Itbl.mem t.taps src then without src t.everyone
        else t.everyone
  else
    let taps = without src t.tap_list in
    match Vsim.Itbl.find t.ports frame.Frame.dst with
    | port -> port :: taps
    | exception Not_found -> taps

(* The length of [tgts = targets t frame], without walking a broadcast's
   list: [without] gives back [everyone] itself exactly when the source
   is not in it.  A unicast reaches at most its destination and the
   taps. *)
let target_count t frame tgts =
  if Frame.is_broadcast frame then
    Vsim.Itbl.length t.ports + Vsim.Itbl.length t.taps
    - if tgts == t.everyone then 0 else 1
  else List.length tgts

(* Batched delivery: one event per arrival instant covers every target
   port, iterated in target order — the same relative delivery order the
   old one-event-per-port scheme produced, at a fraction of the heap
   traffic for broadcasts.  Frames are immutable, so every receiver (and
   every scripted duplicate) gets the transmitted frame itself, at no
   allocation; only a delivery [deliver_to] corrupts gets a private
   copy, so the mark never reaches another receiver.  A fault with no
   drop or corrupt probability and no collision bug makes [deliver_to]
   draw nothing and deliver every frame intact, so such a delivery
   takes [deliver_clean], which allocates nothing; the fault is read
   once per delivery event, as [deliver_to] would find it.
   Only the last receiver's call is the delivery's last, so the tail of
   the event is hidden from the others, once per delivery, and given
   back for the last ([held]). *)
let rec deliver_clean t frame held = function
  | [] -> ()
  | [ port ] ->
      if held then Vsim.Engine.retake_tail t.eng;
      t.s_delivered <- t.s_delivered + 1;
      port.prx frame
  | port :: rest ->
      t.s_delivered <- t.s_delivered + 1;
      port.prx frame;
      deliver_clean t frame held rest

let rec deliver_each t frame held = function
  | [] -> ()
  | [ port ] ->
      if held then Vsim.Engine.retake_tail t.eng;
      deliver_to t frame port
  | port :: rest ->
      deliver_to t frame port;
      deliver_each t frame held rest

let deliver_all t frame ports =
  let held =
    match ports with
    | [] | [ _ ] -> false
    | _ :: _ :: _ ->
        let held = Vsim.Engine.holds_tail t.eng in
        Vsim.Engine.drop_tail t.eng;
        held
  in
  let f = t.flt in
  if f.Fault.drop_prob <= 0.0 && f.Fault.corrupt_prob <= 0.0
     && not f.Fault.collision_bug
  then deliver_clean t frame held ports
  else deliver_each t frame held ports

let schedule_rx t frame ports ~at =
  match ports with
  | [] -> ()
  | ports ->
      ignore
        (Vsim.Engine.at_kind t.eng ~kind:k_deliver at (fun () ->
             deliver_all t frame ports))

(* Scripted loss is accounted per receiver at what would have been the
   arrival instant, exactly like probabilistic loss, so that
   [targeted + duplicated = delivered + dropped] holds either way and
   Packet_drop events always name the receiver that missed the frame. *)
let drop_scripted t frame ports ~at =
  match ports with
  | [] -> ()
  | ports ->
      ignore
        (Vsim.Engine.at_kind t.eng ~kind:k_drop at (fun () ->
             List.iter
               (fun port ->
                 t.s_dropped <- t.s_dropped + 1;
                 if Vsim.Trace.tracing t.eng then
                   Vsim.Trace.event t.eng
                     (Vsim.Event.Packet_drop
                        {
                          host = port.paddr;
                          reason = "fault-scripted";
                          bytes = Frame.length frame;
                        }))
               ports))

(* How long a Reorder-held frame waits for a successor before a timer
   flushes it anyway; keeps a reorder at end-of-run from acting as a drop. *)
let reorder_flush_ns t = 10 * t.cfg.latency_ns

let release_held t ~at =
  match t.held with
  | None -> ()
  | Some frame ->
      t.held <- None;
      (match t.held_flush with
      | Some h ->
          Vsim.Engine.cancel t.eng h;
          t.held_flush <- None
      | None -> ());
      schedule_rx t frame (targets t frame) ~at

let deliver t frame =
  t.frame_no <- t.frame_no + 1;
  (* Host faults fire at the instant transmission [frame_no] completes:
     the crash happens now (so the crashing host misses even this frame,
     still in flight towards it), and a restart is scheduled for later. *)
  (match (Fault.host_event_for t.flt t.frame_no, t.host_handler) with
  | Some ev, Some (crash, restart) ->
      crash ();
      (match ev with
      | Fault.Crash -> ()
      | Fault.Restart d ->
          ignore
            (Vsim.Engine.at_kind t.eng ~kind:k_host_restart
               (Vsim.Engine.now t.eng + d)
               restart))
  | _ -> ());
  let arrival = Vsim.Engine.now t.eng + t.cfg.latency_ns in
  let tgts = targets t frame in
  let n = target_count t frame tgts in
  match Fault.action_for t.flt t.frame_no with
  | Some Fault.Drop ->
      t.s_targeted <- t.s_targeted + n;
      drop_scripted t frame tgts ~at:arrival;
      release_held t ~at:(arrival + 1)
  | Some Fault.Duplicate ->
      t.s_targeted <- t.s_targeted + n;
      t.s_duplicated <- t.s_duplicated + n;
      schedule_rx t frame tgts ~at:arrival;
      schedule_rx t frame tgts ~at:(arrival + slot_ns);
      release_held t ~at:(arrival + 1)
  | Some (Fault.Delay extra) ->
      t.s_targeted <- t.s_targeted + n;
      schedule_rx t frame tgts ~at:(arrival + extra);
      release_held t ~at:(arrival + 1)
  | Some Fault.Reorder ->
      t.s_targeted <- t.s_targeted + n;
      (* At most one frame is parked: a second Reorder flushes the first. *)
      release_held t ~at:arrival;
      t.held <- Some frame;
      t.held_flush <-
        Some
          (Vsim.Engine.at_kind t.eng ~kind:k_reorder_flush
             (Vsim.Engine.now t.eng + reorder_flush_ns t)
             (fun () ->
               t.held_flush <- None;
               release_held t ~at:(Vsim.Engine.now t.eng)))
  | None ->
      t.s_targeted <- t.s_targeted + n;
      schedule_rx t frame tgts ~at:arrival;
      release_held t ~at:(arrival + 1)

let rec attempt t (p : pending) =
  let now = Vsim.Engine.now t.eng in
  match t.current with
  | Some cur when now - cur.started < slot_ns ->
      (* Within the collision window of an in-progress transmission: both
         stations detect the collision, abort and back off. *)
      Vsim.Engine.cancel t.eng cur.finish;
      t.current <- None;
      t.s_collisions <- t.s_collisions + 1;
      if Vsim.Trace.tracing t.eng then
        Vsim.Trace.event t.eng
          (Vsim.Event.Collision
             { a = cur.who.frame.Frame.src; b = p.frame.Frame.src });
      t.busy_until <- now + jam_ns;
      ignore
        (Vsim.Engine.at_kind t.eng ~kind:k_drain t.busy_until (fun () ->
             drain t));
      backoff t cur.who;
      backoff t p
  | Some _ ->
      (* Carrier sensed: defer until the medium frees. *)
      Queue.add p t.waiters
  | None ->
      if now < t.busy_until then Queue.add p t.waiters
      else begin
        let tx = Frame.length p.frame * byte_time_ns t.cfg in
        let finish_at = now + tx in
        let finish =
          Vsim.Engine.at_kind t.eng ~kind:k_tx_done finish_at (fun () ->
              complete t p tx)
        in
        t.busy_until <- finish_at;
        t.current <- Some { who = p; started = now; finish }
      end

and complete t p tx =
  t.current <- None;
  t.s_tx_busy <- t.s_tx_busy + tx;
  t.s_bits <- t.s_bits + (8 * Frame.length p.frame);
  deliver t p.frame;
  p.on_sent ();
  drain t

and backoff t (p : pending) =
  p.attempts <- p.attempts + 1;
  if p.attempts > 16 then begin
    t.s_excessive <- t.s_excessive + 1;
    if Vsim.Trace.tracing t.eng then
      Vsim.Trace.event t.eng
        (Vsim.Event.Packet_drop
           {
             host = p.frame.Frame.src;
             reason = "excessive-collisions";
             bytes = Frame.length p.frame;
           });
    p.on_sent ()
  end
  else begin
    let k = Int.min p.attempts 10 in
    let slots = Vsim.Rng.int t.rng (1 lsl k) in
    let delay = jam_ns + (slots * slot_ns) in
    ignore
      (Vsim.Engine.after_kind t.eng ~kind:k_backoff delay (fun () ->
           attempt t p))
  end

and drain t =
  (* Release deferred stations; if several wake at the same instant they
     will collide via the slot-window rule in [attempt]. *)
  let pending = Queue.length t.waiters in
  for _ = 1 to pending do
    let p = Queue.pop t.waiters in
    attempt t p
  done

let transmit ?(on_sent = ignore) ?(bridged = false) t frame =
  if Frame.length frame > max_payload then
    Fmt.invalid_arg "Medium.transmit: frame of %d bytes exceeds max %d"
      (Frame.length frame) max_payload;
  (* A bridge forwards frames transparently: the original source address
     is preserved even though that station is attached to another segment,
     so Mapped-mode address learning keeps working across the gateway. *)
  if (not bridged) && not (Vsim.Itbl.mem t.ports frame.Frame.src) then
    invalid_arg "Medium.transmit: source not attached";
  t.s_attempted <- t.s_attempted + 1;
  attempt t { frame; attempts = 0; on_sent }
