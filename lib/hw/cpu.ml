type t = {
  cname : string;
  chost : int;
  cmodel : Cost_model.t;
  eng : Vsim.Engine.t;
  mutable free : Vsim.Time.t;
  mutable busy : int;
}

type mark = { at : Vsim.Time.t; busy_then : int }

let k_grant = Vsim.Eventq.Kind.intern "cpu.grant"

let create ?(host = 0) eng ~model ~name =
  { cname = name; chost = host; cmodel = model; eng; free = 0; busy = 0 }

let name t = t.cname
let host t = t.chost
let model t = t.cmodel
let engine t = t.eng
let busy_ns t = t.busy
let free_at t = Int.max t.free (Vsim.Engine.now t.eng)

(* Queue [ns] of work behind whatever the CPU already holds and return the
   instant it completes. *)
let book t ns =
  let start = Int.max (Vsim.Engine.now t.eng) t.free in
  let finish = start + ns in
  t.free <- finish;
  t.busy <- t.busy + ns;
  if ns > 0 && Vsim.Trace.tracing t.eng then
    Vsim.Trace.event t.eng
      (Vsim.Event.Cpu_grant { host = t.chost; cpu = t.cname; ns });
  finish

let charge_k t ns k =
  ignore (Vsim.Engine.at_kind t.eng ~kind:k_grant (book t (Int.max ns 0)) k)

let reserve t ns = if ns > 0 then ignore (book t ns)

let charge_in_place t ns =
  let ns = Int.max ns 0 in
  let eng = t.eng in
  Vsim.Engine.next_is eng (Int.max (Vsim.Engine.now eng) t.free + ns)
  && begin
    Vsim.Engine.advance eng ~kind:k_grant (book t ns);
    true
  end

let charge_tail t ns k = if charge_in_place t ns then k () else charge_k t ns k

(* The grant's callback is the resume itself, so it is a tail resume. *)
let charge t ns =
  if not (charge_in_place t ns) then
    Vsim.Proc.suspend_tail (fun resume -> charge_k t ns resume)

let compute = charge

let mark t = { at = Vsim.Engine.now t.eng; busy_then = t.busy }
let busy_since t m = t.busy - m.busy_then

let utilization_since t m =
  let elapsed = Vsim.Engine.now t.eng - m.at in
  if elapsed <= 0 then 0.0 else float_of_int (busy_since t m) /. float_of_int elapsed
