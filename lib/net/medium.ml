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
  mutable slot : int;
      (** this port's index in the medium's [fan], set by [refresh] *)
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

(* The broadcast order, as arrays: every port in the reverse of the port
   table's walk order, then every tap in walk order ([fports]), and their
   [prx] callbacks at the same indices ([frx]).  [fmedium] is the medium
   they belong to, so that a delivery event's closure holds the fan, the
   frame and the slot to skip, and nothing else. *)
type fan = {
  fmedium : t;
  fports : port array;
  frx : (Frame.t -> unit) array;
  ftaps : port list;  (** the taps, the tail of [fports], as a list *)
}

and t = {
  cfg : config;
  eng : Vsim.Engine.t;
  rng : Vsim.Rng.t;
  ports : port Vsim.Itbl.t;
  taps : port Vsim.Itbl.t;
      (** promiscuous stations (bridges): targeted by every frame *)
  mutable fan : fan option;
      (** the broadcast order, or [None] if a station attached since it
          was built *)
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
    fan = None;
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
  let port = { paddr = addr; prx = rx; slot = -1 } in
  Vsim.Itbl.replace t.ports addr port;
  t.fan <- None;
  port

let attach_tap t ~addr ~rx =
  if not (Addr.is_valid addr) || Addr.is_broadcast addr then
    invalid_arg "Medium.attach_tap: bad address";
  if Vsim.Itbl.mem t.ports addr || Vsim.Itbl.mem t.taps addr then
    Fmt.invalid_arg "Medium.attach_tap: address %d already attached" addr;
  let port = { paddr = addr; prx = rx; slot = -1 } in
  Vsim.Itbl.replace t.taps addr port;
  t.fan <- None;
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
   folding each table into a list once put them.  [Vsim.Itbl] walks a
   table in the order a polymorphic [Hashtbl] would, so the order is the
   one the per-frame folds gave.  The first frame after an attach builds
   that order as a [fan] (so attaching n stations costs one rebuild, not
   n) and gives every station its [slot] in it; a broadcast walks the
   whole fan and skips its source's slot, or none for a frame bridged in
   from another segment, whose source is in neither table.  A rebuild
   makes new arrays and never writes old ones, so a delivery scheduled
   before it walks the order it was given. *)
let no_port = { paddr = Addr.broadcast; prx = ignore; slot = -1 }

(* [Vsim.Itbl.fold] steps: number a port, number a tap, put a station in
   its slot.  None captures anything, so building a fan allocates only
   its arrays, its record and its tap list. *)
let number_port _ port i =
  port.slot <- i;
  i - 1

let number_tap _ port i =
  port.slot <- i;
  i + 1

let place _ port fports =
  fports.(port.slot) <- port;
  fports

let build t =
  let nports = Vsim.Itbl.length t.ports in
  let n = nports + Vsim.Itbl.length t.taps in
  ignore (Vsim.Itbl.fold number_port t.ports (nports - 1));
  ignore (Vsim.Itbl.fold number_tap t.taps nports);
  let fports =
    Vsim.Itbl.fold place t.taps
      (Vsim.Itbl.fold place t.ports (Array.make n no_port))
  in
  let ftaps = ref [] in
  for i = n - 1 downto nports do
    ftaps := fports.(i) :: !ftaps
  done;
  let fan =
    {
      fmedium = t;
      fports;
      frx = Array.map (fun port -> port.prx) fports;
      ftaps = !ftaps;
    }
  in
  t.fan <- Some fan;
  fan

let[@inline] refresh t = match t.fan with Some fan -> fan | None -> build t

(* The slot of a frame's source in the current fan, or -1 if it is
   attached here as neither a port nor a tap. *)
let source_slot t src =
  match Vsim.Itbl.find t.ports src with
  | port -> port.slot
  | exception Not_found -> (
      match Vsim.Itbl.find t.taps src with
      | tap -> tap.slot
      | exception Not_found -> -1)

(* How many stations a broadcast that skips [skip] reaches. *)
let receivers fan skip = Array.length fan.fports - if skip < 0 then 0 else 1

let rec has_addr addr = function
  | [] -> false
  | port :: rest -> Addr.equal port.paddr addr || has_addr addr rest

(* A unicast reaches its destination, if attached, then every tap but
   its source.  Only a frame a tap sends itself has its source among the
   taps, and a bridge forwards frames under their own sources, so the
   filter is left to that case. *)
let unicast_targets t fan frame =
  let src = frame.Frame.src in
  let taps =
    if has_addr src fan.ftaps then
      List.filter (fun port -> not (Addr.equal port.paddr src)) fan.ftaps
    else fan.ftaps
  in
  match Vsim.Itbl.find t.ports frame.Frame.dst with
  | port -> port :: taps
  | exception Not_found -> taps

(* Batched delivery: one event per arrival instant covers every target,
   iterated in target order — the same relative delivery order the old
   one-event-per-port scheme produced, at a fraction of the heap traffic
   for broadcasts.  Frames are immutable, so every receiver (and every
   scripted duplicate) gets the transmitted frame itself, at no
   allocation; only a delivery [deliver_to] corrupts gets a private
   copy, so the mark never reaches another receiver.  A fault with no
   drop or corrupt probability and no collision bug makes [deliver_to]
   draw nothing and deliver every frame intact, so such a delivery calls
   the receivers directly and allocates nothing; the fault is read once
   per delivery event, as [deliver_to] would find it.  Only the last
   receiver's call is the delivery's last, so a delivery to more than
   one hides the tail of its event from the others ([hide_tail]) and
   gives it back for the last ([held]). *)
let[@inline] clean (f : Fault.t) =
  f.Fault.drop_prob <= 0.0 && f.Fault.corrupt_prob <= 0.0
  && not f.Fault.collision_bug

let hide_tail t =
  let held = Vsim.Engine.holds_tail t.eng in
  Vsim.Engine.drop_tail t.eng;
  held

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
    match ports with [] | [ _ ] -> false | _ :: _ :: _ -> hide_tail t
  in
  if clean t.flt then deliver_clean t frame held ports
  else deliver_each t frame held ports

(* A broadcast's delivery: every slot of [fan] but [skip], in order, at
   one array slot and one call per receiver on a clean medium, which
   counts its deliveries before it makes them. *)
let deliver_fan fan frame skip =
  let t = fan.fmedium and frx = fan.frx in
  let n = Array.length frx in
  let last = if skip = n - 1 then n - 2 else n - 1 in
  let receivers = receivers fan skip in
  let held = receivers >= 2 && hide_tail t in
  if clean t.flt then begin
    t.s_delivered <- t.s_delivered + receivers;
    for i = 0 to last - 1 do
      if i <> skip then frx.(i) frame
    done;
    if held then Vsim.Engine.retake_tail t.eng;
    frx.(last) frame
  end
  else begin
    let fports = fan.fports in
    for i = 0 to last - 1 do
      if i <> skip then deliver_to t frame fports.(i)
    done;
    if held then Vsim.Engine.retake_tail t.eng;
    deliver_to t frame fports.(last)
  end

let schedule_rx t frame ports ~at =
  match ports with
  | [] -> ()
  | ports ->
      ignore
        (Vsim.Engine.at_kind t.eng ~kind:k_deliver at (fun () ->
             deliver_all t frame ports))

let schedule_fan fan frame skip ~at =
  if receivers fan skip > 0 then
    ignore
      (Vsim.Engine.at_kind fan.fmedium.eng ~kind:k_deliver at (fun () ->
           deliver_fan fan frame skip))

(* Scripted loss is accounted per receiver at what would have been the
   arrival instant, exactly like probabilistic loss, so that
   [targeted + duplicated = delivered + dropped] holds either way and
   Packet_drop events always name the receiver that missed the frame. *)
let lose t frame port =
  t.s_dropped <- t.s_dropped + 1;
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Packet_drop
         {
           host = port.paddr;
           reason = "fault-scripted";
           bytes = Frame.length frame;
         })

let drop_scripted t frame ports ~at =
  match ports with
  | [] -> ()
  | ports ->
      ignore
        (Vsim.Engine.at_kind t.eng ~kind:k_drop at (fun () ->
             List.iter (lose t frame) ports))

let drop_fan fan frame skip ~at =
  let t = fan.fmedium in
  if receivers fan skip > 0 then
    ignore
      (Vsim.Engine.at_kind t.eng ~kind:k_drop at (fun () ->
           Array.iteri
             (fun i port -> if i <> skip then lose t frame port)
             fan.fports))

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
      let fan = refresh t in
      if Frame.is_broadcast frame then
        schedule_fan fan frame (source_slot t frame.Frame.src) ~at
      else schedule_rx t frame (unicast_targets t fan frame) ~at

(* The deliveries of [frame], at [at]: a broadcast's to [fan] but the
   slot [skip], a unicast's to [tgts]. *)
let schedule t fan frame skip tgts ~at =
  if Frame.is_broadcast frame then schedule_fan fan frame skip ~at
  else schedule_rx t frame tgts ~at

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
  let fan = refresh t in
  let bcast = Frame.is_broadcast frame in
  let skip = if bcast then source_slot t frame.Frame.src else -1 in
  let tgts = if bcast then [] else unicast_targets t fan frame in
  let n = if bcast then receivers fan skip else List.length tgts in
  t.s_targeted <- t.s_targeted + n;
  match Fault.action_for t.flt t.frame_no with
  | Some Fault.Drop ->
      if bcast then drop_fan fan frame skip ~at:arrival
      else drop_scripted t frame tgts ~at:arrival;
      release_held t ~at:(arrival + 1)
  | Some Fault.Duplicate ->
      t.s_duplicated <- t.s_duplicated + n;
      schedule t fan frame skip tgts ~at:arrival;
      schedule t fan frame skip tgts ~at:(arrival + slot_ns);
      release_held t ~at:(arrival + 1)
  | Some (Fault.Delay extra) ->
      schedule t fan frame skip tgts ~at:(arrival + extra);
      release_held t ~at:(arrival + 1)
  | Some Fault.Reorder ->
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
      schedule t fan frame skip tgts ~at:arrival;
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
