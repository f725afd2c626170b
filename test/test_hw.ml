(* Tests for the CPU resource and cost-model calibration. *)

let test_cpu_fcfs () =
  let eng = Vsim.Engine.create () in
  let cpu = Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_8mhz ~name:"cpu" in
  let log = ref [] in
  Vhw.Cpu.charge_k cpu 100 (fun () -> log := ("a", Vsim.Engine.now eng) :: !log);
  Vhw.Cpu.charge_k cpu 50 (fun () -> log := ("b", Vsim.Engine.now eng) :: !log);
  Vsim.Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "charges serialize FCFS"
    [ ("a", 100); ("b", 150) ]
    (List.rev !log);
  Alcotest.(check int) "busy accounted" 150 (Vhw.Cpu.busy_ns cpu)

let test_cpu_idle_gap () =
  let eng = Vsim.Engine.create () in
  let cpu = Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_8mhz ~name:"cpu" in
  let done_at = ref 0 in
  ignore
    (Vsim.Engine.after eng 1000 (fun () ->
         Vhw.Cpu.charge_k cpu 100 (fun () -> done_at := Vsim.Engine.now eng)));
  Vsim.Engine.run eng;
  Alcotest.(check int) "starts when idle at now" 1100 !done_at;
  Alcotest.(check int) "busy only the charge" 100 (Vhw.Cpu.busy_ns cpu)

let test_cpu_utilization () =
  let eng = Vsim.Engine.create () in
  let cpu = Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_8mhz ~name:"cpu" in
  let mark = Vhw.Cpu.mark cpu in
  Vhw.Cpu.charge_k cpu 400 ignore;
  ignore (Vsim.Engine.after eng 1000 ignore);
  Vsim.Engine.run eng;
  Alcotest.(check (float 1e-9))
    "40% busy" 0.4
    (Vhw.Cpu.utilization_since cpu mark)

let test_cpu_blocking_charge () =
  let eng = Vsim.Engine.create () in
  let cpu = Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_8mhz ~name:"cpu" in
  let t = ref 0 in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vhw.Cpu.charge cpu 250;
        Vhw.Cpu.charge cpu 250;
        t := Vsim.Engine.now eng)
  in
  Vsim.Engine.run eng;
  Alcotest.(check int) "sequential charges" 500 !t

(* A charge of 0 ns is not a no-op: it waits for the work already queued
   on the CPU, and on an idle CPU it still yields to the events due now.
   Kernel paths such as a zero-length segment copy rely on both. *)
let test_cpu_zero_charge_waits () =
  let eng = Vsim.Engine.create () in
  let cpu = Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_8mhz ~name:"cpu" in
  let queued_at = ref (-1) and idle_at = ref (-1) and ran_first = ref false in
  Vhw.Cpu.charge_k cpu 1_000 ignore;
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vhw.Cpu.charge cpu 0;
        queued_at := Vsim.Engine.now eng;
        let due_now = ref false in
        ignore (Vsim.Engine.after eng 0 (fun () -> due_now := true));
        Vhw.Cpu.charge cpu 0;
        ran_first := !due_now;
        idle_at := Vsim.Engine.now eng)
  in
  Vsim.Engine.run eng;
  Alcotest.(check int) "0 ns waits behind a 1,000 ns charge_k" 1_000
    !queued_at;
  Alcotest.(check int) "0 ns on an idle CPU takes no time" 1_000 !idle_at;
  Alcotest.(check bool) "0 ns on an idle CPU yields to events due now" true
    !ran_first;
  Alcotest.(check int) "0 ns adds no busy time" 1_000 (Vhw.Cpu.busy_ns cpu)

(* [reserve] books CPU time exactly as [charge_k ... ignore] does, without
   an event.  Each check runs the same history on a reserving CPU and on
   a charge_k CPU, in separate engines, and compares them. *)
let test_cpu_reserve () =
  let pair () =
    let mk () =
      let eng = Vsim.Engine.create () in
      (eng, Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_8mhz ~name:"cpu")
    in
    (mk (), mk ())
  in
  let same what (_, r) (_, c) =
    Alcotest.(check int) (what ^ ": busy_ns") (Vhw.Cpu.busy_ns c)
      (Vhw.Cpu.busy_ns r);
    Alcotest.(check int) (what ^ ": free_at") (Vhw.Cpu.free_at c)
      (Vhw.Cpu.free_at r)
  in
  (* An idle CPU, a queued one, and one idle again after a gap. *)
  let ((reng, rcpu) as r), ((ceng, ccpu) as c) = pair () in
  let pending0 = Vsim.Engine.pending reng in
  Vhw.Cpu.reserve rcpu 300;
  Vhw.Cpu.charge_k ccpu 300 ignore;
  Alcotest.(check int) "reserve schedules nothing" pending0
    (Vsim.Engine.pending reng);
  same "idle" r c;
  Vhw.Cpu.reserve rcpu 200;
  Vhw.Cpu.charge_k ccpu 200 ignore;
  same "queued" r c;
  Alcotest.(check int) "queued: 500 busy" 500 (Vhw.Cpu.busy_ns rcpu);
  let at_gap (eng, cpu) f =
    ignore (Vsim.Engine.at eng 2_000 (fun () -> f cpu))
  in
  at_gap r (fun cpu -> Vhw.Cpu.reserve cpu 100);
  at_gap c (fun cpu -> Vhw.Cpu.charge_k cpu 100 ignore);
  Vsim.Engine.run reng;
  Vsim.Engine.run ceng;
  same "after a gap" r c;
  Alcotest.(check int) "after a gap: free at 2,100" 2_100
    (Vhw.Cpu.free_at rcpu);
  (* A charge_k behind a reserve completes at the reserve's end plus its
     own ns, as it does behind a charge_k. *)
  let done_at (eng, cpu) first =
    let t = ref (-1) in
    first cpu;
    Vhw.Cpu.charge_k cpu 50 (fun () -> t := Vsim.Engine.now eng);
    Vsim.Engine.run eng;
    !t
  in
  let r, c = pair () in
  let by_reserve = done_at r (fun cpu -> Vhw.Cpu.reserve cpu 300) in
  Alcotest.(check int) "charge_k behind a reserve" 350 by_reserve;
  Alcotest.(check int) "charge_k behind a charge_k" by_reserve
    (done_at c (fun cpu -> Vhw.Cpu.charge_k cpu 300 ignore));
  (* ns <= 0 changes nothing. *)
  let eng, cpu = fst (pair ()) in
  ignore (Vsim.Engine.at eng 700 ignore);
  Vsim.Engine.run eng;
  Vhw.Cpu.reserve cpu 0;
  Vhw.Cpu.reserve cpu (-5);
  Alcotest.(check int) "ns <= 0: no busy time" 0 (Vhw.Cpu.busy_ns cpu);
  Alcotest.(check int) "ns <= 0: free now" 700 (Vhw.Cpu.free_at cpu);
  Alcotest.(check int) "ns <= 0: nothing pending" 0 (Vsim.Engine.pending eng);
  (* A traced reserve emits one Cpu_grant carrying its ns, like charge_k;
     a 0 ns reserve emits none. *)
  let grants (eng, cpu) book =
    let got = ref [] in
    Vsim.Trace.attach eng (fun _ ev ->
        match ev with
        | Vsim.Event.Cpu_grant { ns; _ } -> got := ns :: !got
        | _ -> ());
    book cpu 0;
    book cpu 420;
    Vsim.Engine.run eng;
    List.rev !got
  in
  let r, c = pair () in
  let traced = grants r Vhw.Cpu.reserve in
  Alcotest.(check (list int)) "traced reserve: one cpu_grant" [ 420 ] traced;
  Alcotest.(check (list int)) "traced charge_k: the same cpu_grant" traced
    (grants c (fun cpu ns -> Vhw.Cpu.charge_k cpu ns ignore))

let test_calibration_pinned () =
  (* These are the constants everything else is calibrated against; a
     change here invalidates EXPERIMENTS.md. *)
  let m8 = Vhw.Cost_model.sun_8mhz and m10 = Vhw.Cost_model.sun_10mhz in
  Alcotest.(check int) "8MHz local S-R-R is 1.00 ms" 1_000_000
    (Vhw.Cost_model.local_srr_ns m8);
  Util.check_ms ~tolerance:0.05 "10MHz local S-R-R" 0.77
    (Vhw.Cost_model.local_srr_ns m10);
  Alcotest.(check int) "8MHz GetTime" 70_000 m8.Vhw.Cost_model.syscall_ns;
  Alcotest.(check int) "10MHz GetTime" 60_000 m10.Vhw.Cost_model.syscall_ns;
  (* Local MoveTo of 1024 bytes: 1.26 / 0.95 ms. *)
  Util.check_ms ~tolerance:0.01 "8MHz local MoveTo 1KB" 1.26
    (m8.Vhw.Cost_model.move_setup_ns
    + (1024 * m8.Vhw.Cost_model.mem_copy_ns_per_byte));
  Util.check_ms ~tolerance:0.01 "10MHz local MoveTo 1KB" 0.95
    (m10.Vhw.Cost_model.move_setup_ns
    + (1024 * m10.Vhw.Cost_model.mem_copy_ns_per_byte))

let test_penalty_formula () =
  (* The paper: P(n) = .0064n + .390 ms (8 MHz); .0054n + .251 (10 MHz).
     Our decomposition: 2 NIC copies + wire time + fixed packet costs +
     medium latency must reproduce the slope and intercept. *)
  let check model ~slope ~intercept =
    let m = model in
    let wire = Vnet.Medium.byte_time_ns Vnet.Medium.config_3mb in
    let got_slope =
      float_of_int ((2 * m.Vhw.Cost_model.nic_copy_ns_per_byte) + wire) /. 1e6
    in
    let got_intercept =
      float_of_int
        (m.Vhw.Cost_model.pkt_send_setup_ns
        + m.Vhw.Cost_model.pkt_recv_handling_ns
        + Vnet.Medium.config_3mb.Vnet.Medium.latency_ns)
      /. 1e6
    in
    if Float.abs (got_slope -. slope) > 0.0002 then
      Alcotest.failf "%s slope: %.5f vs %.5f" m.Vhw.Cost_model.name got_slope
        slope;
    if Float.abs (got_intercept -. intercept) > 0.01 then
      Alcotest.failf "%s intercept: %.4f vs %.4f" m.Vhw.Cost_model.name
        got_intercept intercept
  in
  check Vhw.Cost_model.sun_8mhz ~slope:0.0064 ~intercept:0.390;
  check Vhw.Cost_model.sun_10mhz ~slope:0.0054 ~intercept:0.251

let test_scale () =
  let m = Vhw.Cost_model.scale Vhw.Cost_model.sun_8mhz ~mhz:16 in
  Alcotest.(check int) "halved syscall" 35_000 m.Vhw.Cost_model.syscall_ns;
  Alcotest.(check int) "mhz" 16 m.Vhw.Cost_model.mhz;
  Alcotest.check_raises "zero mhz rejected"
    (Invalid_argument "Cost_model.scale: mhz must be positive") (fun () ->
      ignore (Vhw.Cost_model.scale Vhw.Cost_model.sun_8mhz ~mhz:0))

(* A CPU wait that runs in place changes host work only.  Random scripts
   of processes on 1-3 CPUs charge time, log, schedule plain events,
   sleep, wait to be woken, wake each other from inside a process and
   kill themselves, beside plain events (some at equal times, some
   waking a process as their last call), under [run ~until] and
   [run_bounded ~max_events].
   Each script runs once with [Cpu.charge] and once with an explicit
   park that never runs in place; the logs, run results, clocks and
   profile fire counts must match.  Driven by [Engine.step] instead, no
   grant may run in place. *)
type op =
  | Charge of int * int  (* cpu, ns *)
  | Log
  | After of int  (* a plain event that logs, this far ahead *)
  | Sleep of int
  | Wait  (* park, with a tail resume, until woken *)
  | Wake of int  (* wake that process now, if it waits *)
  | Die  (* kill this process, which runs on until it next parks *)

type script = {
  cpus : int;
  procs : op list array;
  events : (int * int option) list;  (* time, the process it wakes *)
  runs : (int option * int) list;  (* until, max_events *)
}

let gen_script st =
  let int n = Random.State.int st n in
  let cpus = 1 + int 3 and nprocs = 1 + int 4 in
  let op () =
    match int 31 with
    | 30 -> Die
    | n -> (
        match n mod 10 with
        | 0 | 1 | 2 | 3 -> Charge (int cpus, 50 * int 5)
        | 4 -> Log
        | 5 -> After (50 * int 6)
        | 6 -> Sleep (50 * int 4)
        | 7 -> Wait
        | 8 -> Wake (int nprocs)
        | _ -> Charge (int cpus, 0))
  in
  {
    cpus;
    procs = Array.init nprocs (fun _ -> List.init (int 12) (fun _ -> op ()));
    events =
      List.init (int 8) (fun _ ->
          (50 * int 20, if int 3 = 0 then Some (int nprocs) else None));
    runs =
      List.init (int 4) (fun _ ->
          ( (if int 2 = 0 then Some (50 * int 30) else None),
            if int 2 = 0 then 1 + int 12 else max_int ));
  }

(* The log, the run results, the final clock, the fires per kind and the
   grants run in place of [sc], stepped one event at a time or run. *)
let exec_script ~in_place ~stepping sc =
  let eng = Vsim.Engine.create () in
  let prof = Vsim.Engine.enable_profiling eng in
  let cpus =
    Array.init sc.cpus (fun i ->
        Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_8mhz
          ~name:(string_of_int i))
  in
  let log = ref [] in
  let note label = log := (Vsim.Engine.now eng, label) :: !log in
  let waiting = Array.make (Array.length sc.procs) None in
  let wake i =
    match waiting.(i) with
    | Some resume ->
        waiting.(i) <- None;
        resume ()
    | None -> ()
  in
  let charge cpu ns =
    if in_place then Vhw.Cpu.charge cpu ns
    else Vsim.Proc.suspend (fun resume -> Vhw.Cpu.charge_k cpu ns resume)
  in
  Array.iteri
    (fun i ops ->
      let body () =
        List.iteri
          (fun j op ->
            let label = Printf.sprintf "p%d.%d" i j in
            match op with
            | Charge (c, ns) ->
                charge cpus.(c) ns;
                note label
            | Log -> note label
            | After d ->
                ignore (Vsim.Engine.after eng d (fun () -> note (label ^ "+")))
            | Sleep d ->
                Vsim.Proc.sleep d;
                note label
            | Wait ->
                Vsim.Proc.suspend_tail (fun resume ->
                    waiting.(i) <- Some resume);
                note label
            | Wake k ->
                wake k;
                note label
            | Die ->
                Vsim.Proc.kill (Vsim.Proc.self ());
                note label)
          ops;
        note (Printf.sprintf "p%d.end" i)
      in
      ignore (Vsim.Proc.spawn eng body))
    sc.procs;
  List.iteri
    (fun j (time, woken) ->
      ignore
        (Vsim.Engine.at eng time (fun () ->
             note (Printf.sprintf "ev%d" j);
             match woken with Some k -> wake k | None -> ())))
    sc.events;
  let show = function
    | `Quiescent n -> Printf.sprintf "quiescent %d" n
    | `Exhausted n -> Printf.sprintf "exhausted %d" n
  in
  let results =
    if stepping then begin
      let n = ref 0 in
      while Vsim.Engine.step eng do
        incr n
      done;
      [ string_of_int !n ]
    end
    else
      List.map
        (fun (until, max_events) ->
          show (Vsim.Engine.run_bounded ?until ~max_events eng))
        (sc.runs @ [ (None, max_int) ])
  in
  let fires =
    List.map (fun (kind, e) -> (kind, e.Vsim.Profile.fires))
      (Vsim.Profile.entries prof)
  in
  let clock = Vsim.Engine.now eng in
  Vsim.Proc.reap eng;
  ( (List.rev !log, results, clock, fires),
    Vsim.Profile.in_place_total prof )

let test_cpu_in_place_equivalence () =
  let st = Random.State.make [| 35 |] in
  let in_place_runs = ref 0 in
  let outcome =
    Alcotest.(
      pair
        (pair (list (pair int string)) (list string))
        (pair int (list (pair string int))))
  in
  let as_pairs (log, results, clock, fires) = ((log, results), (clock, fires)) in
  for i = 1 to 300 do
    let sc = gen_script st in
    let fast, n = exec_script ~in_place:true ~stepping:false sc in
    let parked, none = exec_script ~in_place:false ~stepping:false sc in
    let name = Printf.sprintf "script %d" i in
    Alcotest.check outcome name (as_pairs parked) (as_pairs fast);
    Alcotest.(check int) (name ^ ": an explicit park never runs in place") 0
      none;
    in_place_runs := !in_place_runs + n;
    let stepped, n = exec_script ~in_place:true ~stepping:true sc in
    let stepped_parked, _ = exec_script ~in_place:false ~stepping:true sc in
    Alcotest.check outcome (name ^ " stepped") (as_pairs stepped_parked)
      (as_pairs stepped);
    Alcotest.(check int) (name ^ ": Engine.step runs nothing in place") 0 n
  done;
  Alcotest.(check bool) "some grants ran in place" true (!in_place_runs > 0)

let suite =
  [
    Alcotest.test_case "cpu FCFS" `Quick test_cpu_fcfs;
    Alcotest.test_case "cpu idle gap" `Quick test_cpu_idle_gap;
    Alcotest.test_case "cpu utilization" `Quick test_cpu_utilization;
    Alcotest.test_case "cpu blocking charge" `Quick test_cpu_blocking_charge;
    Alcotest.test_case "calibration pinned" `Quick test_calibration_pinned;
    Alcotest.test_case "penalty formula" `Quick test_penalty_formula;
    Alcotest.test_case "cost model scale" `Quick test_scale;
    Alcotest.test_case "cpu zero charge waits" `Quick
      test_cpu_zero_charge_waits;
    Alcotest.test_case "cpu reserve" `Quick test_cpu_reserve;
    Alcotest.test_case "cpu in-place equivalence" `Quick
      test_cpu_in_place_equivalence;
  ]
