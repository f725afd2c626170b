type mode = Fixed | Adaptive

(* One destination's estimator and failure-detector state. *)
type dest = {
  mutable srtt_ns : int;
  mutable rttvar_ns : int;
  mutable have_sample : bool;
  mutable backoff : int;
      (** consecutive timer expiries without a fresh RTT sample *)
  mutable fails : int;  (** consecutive retry exhaustions *)
  mutable suspected : bool;
}

type t = {
  eng : Vsim.Engine.t;
  host : int;
  mode : mode;
  fixed_ns : int;
  seed_ns : int;
  dests : dest Vsim.Itbl.t;
}

(* Cost-model seed for a destination we have never measured: the CPU side
   of an idealized remote S-R-R, both directions.  It deliberately
   ignores wire time (the kernel does not know the medium), so the
   no-sample timeout below pads it generously. *)
let rtt_seed (m : Vhw.Cost_model.t) =
  (2
  * (m.Vhw.Cost_model.pkt_send_setup_ns
    + m.Vhw.Cost_model.pkt_recv_handling_ns
    + (2 * 64 * m.Vhw.Cost_model.nic_copy_ns_per_byte)))
  + m.Vhw.Cost_model.send_op_ns + m.Vhw.Cost_model.receive_op_ns
  + m.Vhw.Cost_model.reply_op_ns
  + (2 * m.Vhw.Cost_model.context_switch_ns)
  + (2 * m.Vhw.Cost_model.remote_op_extra_ns)

(* Adaptive timeouts are clamped to [min_ns, max_ns] (which also caps
   backoff) and grow by [ns_per_byte] per outstanding data byte, so
   MoveTo/MoveFrom page trains get size-scaled timers.  [suspect_threshold]
   consecutive retry exhaustions mark a destination suspect. *)
let min_ns = Vsim.Time.ms 1
let max_ns = Vsim.Time.ms 800
let ns_per_byte = 3_000
let suspect_threshold = 2

let create eng ~host ~model ~mode ~fixed_ns =
  {
    eng;
    host;
    mode;
    fixed_ns;
    seed_ns = rtt_seed model;
    dests = Vsim.Itbl.create 16;
  }

let reset t = Vsim.Itbl.reset t.dests

let state t dst =
  match Vsim.Itbl.find t.dests dst with
  | d -> d
  | exception Not_found ->
      let d =
        {
          srtt_ns = t.seed_ns;
          rttvar_ns = t.seed_ns / 2;
          have_sample = false;
          backoff = 0;
          fails = 0;
          suspected = false;
        }
      in
      Vsim.Itbl.replace t.dests dst d;
      d

let suspected t ~dst =
  match Vsim.Itbl.find_opt t.dests dst with
  | Some d -> d.suspected
  | None -> false

(* The un-backed-off, un-jittered adaptive timeout.  With samples this is
   the classic srtt + 4*rttvar, floored at 1.5*srtt: in a simulator
   identical exchanges drive rttvar to zero, and a timeout equal to the
   RTT itself would race every reply.  Without samples the cost-model seed
   is padded and floored so a first exchange never times out spuriously. *)
let base_of t d ~bytes =
  let base =
    if d.have_sample then d.srtt_ns + Int.max (4 * d.rttvar_ns) (d.srtt_ns / 2)
    else Int.max (3 * t.seed_ns) (Vsim.Time.ms 10)
  in
  Int.min (Int.max (base + (bytes * ns_per_byte)) min_ns) max_ns

let backed_off t d ~bytes =
  Int.min (base_of t d ~bytes * (1 lsl Int.min d.backoff 6)) max_ns

let base_ns t ~dst ~bytes =
  match t.mode with
  | Fixed -> t.fixed_ns
  | Adaptive -> base_of t (state t dst) ~bytes

let timeout_ns t ~dst ~bytes =
  match t.mode with
  | Fixed -> t.fixed_ns
  | Adaptive ->
      let d = state t dst in
      let rto = backed_off t d ~bytes in
      if d.backoff = 0 then rto
      else rto + Vsim.Rng.int (Vsim.Engine.rng t.eng) (1 + (rto / 8))

let note_expiry t ~dst ~kind ~seq ~attempt ~rto_ns =
  let d = state t dst in
  d.backoff <- d.backoff + 1;
  if Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Backoff
         { host = t.host; peer = dst; kind; seq; attempt; rto_ns })

let note_success t ~dst ~sample_ns =
  let d = state t dst in
  d.fails <- 0;
  d.suspected <- false;
  match sample_ns with
  | None -> ()
  | Some r ->
      let r = Int.max r 1 in
      d.backoff <- 0;
      if d.have_sample then begin
        d.rttvar_ns <- ((3 * d.rttvar_ns) + abs (d.srtt_ns - r)) / 4;
        d.srtt_ns <- ((7 * d.srtt_ns) + r) / 8
      end
      else begin
        d.have_sample <- true;
        d.srtt_ns <- r;
        d.rttvar_ns <- r / 2
      end;
      if t.mode = Adaptive && Vsim.Trace.tracing t.eng then
        Vsim.Trace.event t.eng
          (Vsim.Event.Rtt_sample
             {
               host = t.host;
               peer = dst;
               sample_ns = r;
               srtt_ns = d.srtt_ns;
               rttvar_ns = d.rttvar_ns;
               rto_ns = base_of t d ~bytes:0;
             })

let note_exhausted t ~dst =
  let d = state t dst in
  d.fails <- d.fails + 1;
  if (not d.suspected) && d.fails >= suspect_threshold then begin
    d.suspected <- true;
    if Vsim.Trace.tracing t.eng then
      Vsim.Trace.event t.eng
        (Vsim.Event.Host_suspected
           { host = t.host; peer = dst; fails = d.fails })
  end;
  d.suspected
