(* How fast the machine is running right now.

   Other tenants of a shared machine slow the simulator down by up to
   40% for minutes at a time, which no choice among one run's reps can
   undo.  So each rep is bracketed by two runs of a fixed computation
   that shares none of the simulator's code: a small discrete-event loop
   (a binary heap of timed events, a byte copy and a hash-table update per
   event) that slows with the simulator when the machine does.  Host
   times are scaled by [nominal_s] over the mean of the two, which
   expresses them in seconds at the pace the yardstick keeps on a quiet
   machine.  A change that claims a gain may not edit the benchmark, so
   the yardstick is the same on both sides of a comparison. *)

(* The yardstick's CPU time on the 2-vCPU Intel Xeon virtual machine the
   baselines in README.md were measured on, when that machine was quiet. *)
let nominal_s = 0.032

type event = { at : int; seq : int; who : int; data : Bytes.t }

let events = 100_000
let actors = 1000

let work () =
  let heap = Array.make actors { at = 0; seq = 0; who = 0; data = Bytes.empty } in
  let n = ref 0 in
  let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq) in
  let swap i j =
    let t = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- t
  in
  let rec up i =
    let p = (i - 1) / 2 in
    if i > 0 && before heap.(i) heap.(p) then (swap i p; up p)
  in
  let rec down i =
    let l = (2 * i) + 1 in
    let m = if l < !n && before heap.(l) heap.(i) then l else i in
    let m = if l + 1 < !n && before heap.(l + 1) heap.(m) then l + 1 else m in
    if m <> i then (swap i m; down m)
  in
  let push e =
    heap.(!n) <- e;
    incr n;
    up (!n - 1)
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    heap.(0) <- heap.(!n);
    down 0;
    top
  in
  let recent = Hashtbl.create 1024 in
  let rng = ref 0x2545F491 in
  let rand k =
    rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
    !rng mod k
  in
  for who = 0 to actors - 1 do
    push { at = rand 1000; seq = who; who; data = Bytes.make 32 'x' }
  done;
  let sum = ref 0 in
  for seq = actors to actors + events - 1 do
    let e = pop () in
    let data = Bytes.copy e.data in
    Bytes.set data (seq land 31) (Char.chr (e.who land 0xff));
    let past = Option.value ~default:[] (Hashtbl.find_opt recent e.who) in
    Hashtbl.replace recent e.who (e.at :: List.filteri (fun i _ -> i < 3) past);
    sum := !sum + Char.code (Bytes.get data 0);
    push { at = e.at + 1 + rand 500; seq; who = ((e.who * 7) + 3) mod actors; data }
  done;
  !sum

(* CPU seconds one run of the yardstick takes, from a collected heap. *)
let seconds () =
  Gc.full_major ();
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (work ()));
  Sys.time () -. t0
