type t = {
  eng : Vsim.Engine.t;
  warmup_until : Vsim.Time.t;
  samples : Vsim.Stat.Series.t;
  mutable first : Vsim.Time.t;
  mutable last : Vsim.Time.t;
}

let create eng ?(warmup = 0) () =
  {
    eng;
    warmup_until = Vsim.Engine.now eng + warmup;
    samples = Vsim.Stat.Series.create ();
    first = -1;
    last = -1;
  }

let measure t f =
  let t0 = Vsim.Engine.now t.eng in
  let x = f () in
  let now = Vsim.Engine.now t.eng in
  if now >= t.warmup_until then begin
    if t.first < 0 then t.first <- now;
    t.last <- now;
    Vsim.Stat.Series.add t.samples (float_of_int (now - t0))
  end;
  x

let count t = Vsim.Stat.Series.count t.samples
let to_ms ns = ns /. 1e6
let mean_ms t = to_ms (Vsim.Stat.Series.mean t.samples)
let p95_ms t = to_ms (Vsim.Stat.Series.percentile t.samples 95.0)

let throughput_per_sec t =
  let n = count t in
  if n < 2 || t.last <= t.first then 0.0
  else float_of_int (n - 1) /. Vsim.Time.to_float_s (t.last - t.first)

