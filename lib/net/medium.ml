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
  tap : bool;  (** attached by [attach_tap] *)
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

(* The delivery order, as arrays: every port in the reverse of the port
   table's walk order, then every tap in walk order from [ftap0] on
   ([fports]), and their [prx] callbacks at the same indices ([frx]).
   [fmedium] is the medium they belong to, so that a delivery event's
   closure holds the fan, the frame and its two slots, and nothing
   else. *)
type fan = {
  fmedium : t;
  fports : port array;
  frx : (Frame.t -> unit) array;
  ftap0 : int;  (** the first tap's slot: the number of ports *)
}

and t = {
  cfg : config;
  eng : Vsim.Engine.t;
  rng : Vsim.Rng.t;
  ports : port Vsim.Itbl.t;
  taps : port Vsim.Itbl.t;
      (** promiscuous stations (bridges): targeted by every frame *)
  mutable stations : port array;
      (** every port and tap at its address, [no_port] elsewhere, up to
          the highest address attached; the tables above are read only
          for their walk order *)
  mutable fan : fan option;
      (** the delivery order, or [None] if a station attached since it
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

(* The station at an address where none is attached. *)
let no_port = { paddr = Addr.broadcast; prx = ignore; tap = false; slot = -1 }

let create eng cfg =
  {
    cfg;
    eng;
    rng = Vsim.Rng.split (Vsim.Engine.rng eng);
    ports = Vsim.Itbl.create 16;
    taps = Vsim.Itbl.create 4;
    stations = [||];
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

(* The station at [addr], or [no_port]; every frame address is valid,
   so only the top of the range can lie past the array. *)
let[@inline] station t addr =
  if addr < Array.length t.stations then Array.unsafe_get t.stations addr
  else no_port

let add t ~tap addr rx =
  let who = if tap then "Medium.attach_tap" else "Medium.attach" in
  if not (Addr.is_valid addr) || Addr.is_broadcast addr then
    invalid_arg (who ^ ": bad address");
  if station t addr != no_port then
    Fmt.invalid_arg "%s: address %d already attached" who addr;
  let port = { paddr = addr; prx = rx; tap; slot = -1 } in
  let n = Array.length t.stations in
  if addr >= n then begin
    let grown = Array.make (addr + 1) no_port in
    Array.blit t.stations 0 grown 0 n;
    t.stations <- grown
  end;
  t.stations.(addr) <- port;
  Vsim.Itbl.replace (if tap then t.taps else t.ports) addr port;
  t.fan <- None

let attach t ~addr ~rx = add t ~tap:false addr rx
let attach_tap t ~addr ~rx = add t ~tap:true addr rx

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

(* Every interface on the segment sees every frame; the destination
   address only decides which of them accept it.  Ports hear a frame in
   the reverse of the port table's walk order, and taps (promiscuous
   bridge ports) follow in walk order; that is the order in which
   folding each table into a list once put them, so a tapless medium
   keeps the exact delivery order it had before taps existed.
   [Vsim.Itbl] walks a table in the order a polymorphic [Hashtbl] would,
   so the order is the one the per-frame folds gave.  The first frame
   after an attach builds that order as a [fan] (so attaching n stations
   costs one rebuild, not n) and gives every station its [slot] in it.
   A rebuild makes new arrays and never writes old ones, so a delivery
   scheduled before it walks the order it was given. *)

(* [Vsim.Itbl.fold] steps: number a port, number a tap, put a station in
   its slot.  None captures anything, so building a fan allocates only
   its arrays and its record. *)
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
  let fan =
    {
      fmedium = t;
      fports;
      frx = Array.map (fun port -> port.prx) fports;
      ftap0 = nports;
    }
  in
  t.fan <- Some fan;
  fan

let[@inline] refresh t = match t.fan with Some fan -> fan | None -> build t

(* The receivers of a frame are its destination's slot [dst], then every
   slot from [first] to the end of the fan but its source's slot [skip].
   A broadcast has no destination and starts at 0.  A unicast has its
   destination's slot, or -1 when that address is not attached as a
   port (its bits fall on the floor unless a tap hears them), and starts
   at the first tap; the destination is never skipped, so a station that
   unicasts to itself hears its frame.  [skip] is -1 for a station
   attached here as neither port nor tap (the source of a frame bridged
   in from another segment).  Both come from the station array, whose
   [no_port] has slot -1; a tap is no frame's destination port. *)
let dst_slot t frame =
  if Frame.is_broadcast frame then -1
  else
    let port = station t frame.Frame.dst in
    if port.tap then -1 else port.slot

let[@inline] source_slot t src = (station t src).slot

let[@inline] first fan frame =
  if Frame.is_broadcast frame then 0 else fan.ftap0

let[@inline] receivers fan frame dst skip =
  let first = first fan frame in
  Array.length fan.fports - first
  + (if dst >= 0 then 1 else 0)
  - if skip >= first then 1 else 0

(* A fault with no drop or corrupt probability and no collision bug
   makes [deliver_to] draw nothing and deliver every frame intact, so
   such a delivery calls the receivers directly. *)
let[@inline] clean (f : Fault.t) =
  f.Fault.drop_prob <= 0.0 && f.Fault.corrupt_prob <= 0.0
  && not f.Fault.collision_bug

let hide_tail t =
  let held = Vsim.Engine.holds_tail t.eng in
  Vsim.Engine.drop_tail t.eng;
  held

(* What a walk does at each receiver's slot: call its receive callback
   on a clean medium, deliver through [deliver_to] on a faulty one, or
   lose the frame to a scripted drop. *)
type visit = Call | Deliver | Lose

let[@inline] visit how fan frx frame i =
  match how with
  | Call -> frx.(i) frame
  | Deliver -> deliver_to fan.fmedium frame fan.fports.(i)
  | Lose -> lose fan.fmedium frame fan.fports.(i)

(* Visit every receiver of [frame], in order.  Only the last receiver's
   call is its event's last, so a frame with more than one receiver
   hides the tail of the event from the others ([hide_tail]) and gives
   it back for the last ([held]).  That call is a tail call in both
   branches, so the receiver does not return through the walk. *)
let[@inline] walk fan frame dst skip how =
  let n = Array.length fan.fports in
  let first = first fan frame in
  let last = if skip = n - 1 then n - 2 else n - 1 in
  let held = receivers fan frame dst skip >= 2 && hide_tail fan.fmedium in
  let frx = fan.frx in
  if last < first then (if dst >= 0 then visit how fan frx frame dst)
  else begin
    if dst >= 0 then visit how fan frx frame dst;
    for i = first to last - 1 do
      if i <> skip then visit how fan frx frame i
    done;
    if held then Vsim.Engine.retake_tail fan.fmedium.eng;
    visit how fan frx frame last
  end

(* One event per arrival instant covers every receiver.  Frames are
   immutable, so every receiver (and every scripted duplicate) gets the
   transmitted frame itself, at no allocation; only a delivery
   [deliver_to] corrupts gets a private copy, so the mark never reaches
   another receiver.  A clean medium counts its deliveries before it
   makes them, at one array slot and one call per receiver; the fault is
   read once per delivery event, as [deliver_to] would find it. *)
let deliver_fan fan frame dst skip =
  let t = fan.fmedium in
  if clean t.flt then begin
    t.s_delivered <- t.s_delivered + receivers fan frame dst skip;
    walk fan frame dst skip Call
  end
  else walk fan frame dst skip Deliver

(* A frame without a destination slot, every broadcast among them, gets
   a closure that holds one value fewer, so its event costs no more than
   it did before unicasts walked the fan. *)
let schedule fan frame dst skip ~at =
  if receivers fan frame dst skip > 0 then
    ignore
      (Vsim.Engine.at_kind fan.fmedium.eng ~kind:k_deliver at
         (if dst < 0 then fun () -> deliver_fan fan frame (-1) skip
          else fun () -> deliver_fan fan frame dst skip))

let drop fan frame dst skip ~at =
  if receivers fan frame dst skip > 0 then
    ignore
      (Vsim.Engine.at_kind fan.fmedium.eng ~kind:k_drop at (fun () ->
           walk fan frame dst skip Lose))

(* How long a Reorder-held frame waits for a successor before a timer
   flushes it anyway; keeps a reorder at end-of-run from acting as a drop. *)
let reorder_flush_ns t = 10 * t.cfg.latency_ns

(* A held frame goes to the receivers of the order current at its
   release. *)
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
      schedule fan frame (dst_slot t frame) (source_slot t frame.Frame.src) ~at

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
  let skip = source_slot t frame.Frame.src in
  let dst = dst_slot t frame in
  let n = receivers fan frame dst skip in
  t.s_targeted <- t.s_targeted + n;
  match Fault.action_for t.flt t.frame_no with
  | Some Fault.Drop ->
      drop fan frame dst skip ~at:arrival;
      release_held t ~at:(arrival + 1)
  | Some Fault.Duplicate ->
      t.s_duplicated <- t.s_duplicated + n;
      schedule fan frame dst skip ~at:arrival;
      schedule fan frame dst skip ~at:(arrival + slot_ns);
      release_held t ~at:(arrival + 1)
  | Some (Fault.Delay extra) ->
      schedule fan frame dst skip ~at:(arrival + extra);
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
      schedule fan frame dst skip ~at:arrival;
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
  if not bridged then begin
    let port = station t frame.Frame.src in
    if port == no_port || port.tap then
      invalid_arg "Medium.transmit: source not attached"
  end;
  t.s_attempted <- t.s_attempted + 1;
  attempt t { frame; attempts = 0; on_sent }
