(* Vsim.Job / Vsim.Pool: ordering, failure determinism, the Eventq kind
   table and lazy compaction, and cross-domain byte-determinism of the
   vcheck sweep — the contract `--domains N` rests on. *)

module Job = Vsim.Job
module Pool = Vsim.Pool
module Eventq = Vsim.Eventq
module Checker = Vcheck.Checker

let test_job_basics () =
  let j = Job.v ~label:(lazy "double") (fun () -> 21) in
  Alcotest.(check string) "label" "double" (Job.label j);
  Alcotest.(check int) "run" 21 (Job.run j);
  let j2 = Job.map (fun n -> n * 2) j in
  Alcotest.(check string) "map keeps label" "double" (Job.label j2);
  Alcotest.(check int) "map applies" 42 (Job.run j2)

(* Result i must belong to job i for every domain count, including
   domain counts above the job count. *)
let test_pool_ordering () =
  let jobs = List.init 37 (fun i -> Job.v (fun () -> i * i)) in
  let expect = List.init 37 (fun i -> i * i) in
  List.iter
    (fun domains ->
      Alcotest.(check (list int))
        (Printf.sprintf "ordered at domains=%d" domains)
        expect
        (Pool.run_list ~domains jobs))
    [ 1; 2; 4; 64 ]

let test_pool_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Pool.run_list ~domains:4 []);
  Alcotest.(check (list int)) "single" [ 7 ]
    (Pool.run_list ~domains:4 [ Job.v (fun () -> 7) ])

exception Boom of int

(* The lowest failing index must surface for any domain count. *)
let test_pool_failure_deterministic () =
  let jobs =
    List.init 20 (fun i ->
        Job.v ~label:(lazy (Printf.sprintf "j%d" i)) (fun () ->
            if i mod 7 = 3 then raise (Boom i) else i))
  in
  List.iter
    (fun domains ->
      match Pool.run_list ~domains jobs with
      | _ -> Alcotest.fail "failing batch returned results"
      | exception Pool.Job_failed { index; label; exn } ->
          Alcotest.(check int)
            (Printf.sprintf "lowest index at domains=%d" domains)
            3 index;
          Alcotest.(check string) "label" "j3" label;
          Alcotest.(check bool) "original exn" true (exn = Boom 3))
    [ 1; 2; 4 ]

(* The persistent pool: workers spawn once, park between batches, and
   get reused — and an eager shutdown respawns cleanly. *)
let test_pool_persistent_reuse () =
  Pool.shutdown ();
  Alcotest.(check int) "empty after shutdown" 0 (Pool.persistent_workers ());
  let jobs = List.init 16 (fun i -> Job.v (fun () -> i * 5)) in
  let expect = List.init 16 (fun i -> i * 5) in
  Alcotest.(check (list int)) "first run" expect (Pool.run_list ~domains:3 jobs);
  let w = Pool.persistent_workers () in
  Alcotest.(check bool) "workers persist between batches" true (w >= 1);
  Alcotest.(check (list int)) "second run" expect
    (Pool.run_list ~domains:3 jobs);
  Alcotest.(check int) "reused, not respawned" w (Pool.persistent_workers ());
  Pool.shutdown ();
  Alcotest.(check int) "shutdown drains" 0 (Pool.persistent_workers ());
  Alcotest.(check (list int)) "respawn after shutdown" expect
    (Pool.run_list ~domains:3 jobs)

(* A job that itself calls Pool.run (a grid cell running a sweep) finds
   the pool busy and must still complete correctly via the ephemeral
   fallback. *)
let test_pool_nested_run () =
  let inner () =
    List.fold_left ( + ) 0
      (Pool.run_list ~domains:2 (List.init 5 (fun i -> Job.v (fun () -> i))))
  in
  let jobs = List.init 6 (fun j -> Job.v (fun () -> j + inner ())) in
  Alcotest.(check (list int)) "nested batches complete"
    (List.init 6 (fun j -> j + 10))
    (Pool.run_list ~domains:3 jobs)

let test_kind_interning () =
  let a = Eventq.Kind.intern "pool-test-kind-a" in
  let a' = Eventq.Kind.intern "pool-test-kind-a" in
  let b = Eventq.Kind.intern "pool-test-kind-b" in
  Alcotest.(check bool) "same string, same id" true (a = a');
  Alcotest.(check bool) "distinct strings, distinct ids" true (a <> b);
  Alcotest.(check string) "name round trip" "pool-test-kind-a"
    (Eventq.Kind.name a);
  Alcotest.(check string) "of_int round trip" "pool-test-kind-b"
    (Eventq.Kind.name (Eventq.Kind.of_int (b :> int)));
  match Eventq.Kind.of_int max_int with
  | (_ : Eventq.kind) -> Alcotest.fail "of_int accepted an unknown id"
  | exception Invalid_argument _ -> ()

let add q ~time fn = Eventq.add q ~time ~kind:Eventq.Kind.other fn

let rec drain_times q acc =
  match Eventq.pop q with
  | None -> List.rev acc
  | Some (time, _) -> drain_times q (time :: acc)

(* Cancel removes an event at once: after cancelling most of the heap the
   live count is exact, and the survivors still pop in time order. *)
let test_eventq_eager_removal () =
  let q = Eventq.create () in
  let evs = Array.init 300 (fun i -> add q ~time:(i + 1) ignore) in
  Alcotest.(check int) "live" 300 (Eventq.live_count q);
  (* Cancel from both ends and the middle, so removal refills holes at
     the root, at leaves and inside the heap. *)
  for i = 0 to 249 do
    Eventq.cancel q evs.((i * 7) mod 300)
  done;
  let cancelled = List.init 250 (fun i -> ((i * 7) mod 300) + 1) in
  (* Double cancel must not double count. *)
  Eventq.cancel q evs.(0);
  Alcotest.(check int) "live after cancel" 50 (Eventq.live_count q);
  ignore (add q ~time:1000 ignore);
  Alcotest.(check int) "live after add" 51 (Eventq.live_count q);
  let survivors =
    List.filter (fun t -> not (List.mem t cancelled)) (List.init 300 succ)
  in
  Alcotest.(check (list int)) "survivors in time order" (survivors @ [ 1000 ])
    (drain_times q [])

(* Cancelling a fired event changes nothing, even after a new event has
   taken over the fired event's slot. *)
let test_eventq_cancel_after_fire () =
  let q = Eventq.create () in
  let e1 = add q ~time:1 ignore in
  let e2 = add q ~time:2 ignore in
  Eventq.cancel q e1;
  Alcotest.(check int) "one live" 1 (Eventq.live_count q);
  (match Eventq.pop q with
  | Some (time, _) -> Alcotest.(check int) "the live event" 2 time
  | None -> Alcotest.fail "queue drained early");
  Eventq.cancel q e2;
  Alcotest.(check bool) "cancel after fire is a no-op" true (Eventq.is_empty q);
  let e3 = add q ~time:3 ignore and e4 = add q ~time:4 ignore in
  Eventq.cancel q e1;
  Eventq.cancel q e2;
  Alcotest.(check int) "stale handles cancel nothing" 2 (Eventq.live_count q);
  Eventq.cancel q e4;
  Alcotest.(check (list int)) "e3 survives" [ 3 ] (drain_times q []);
  Eventq.cancel q e3;
  Alcotest.(check bool) "empty" true (Eventq.is_empty q)

(* Schedules an event whose callback alone holds [payload], which only
   the weak table [w] sees from outside. *)
let[@inline never] add_holding q w =
  let payload = Bytes.make 64 'p' in
  Weak.set w 0 (Some payload);
  add q ~time:5 (fun () -> ignore (Sys.opaque_identity payload))

let[@inline never] fire_next q =
  match Eventq.pop q with
  | Some (_, fn) -> fn ()
  | None -> Alcotest.fail "nothing to fire"

(* A cancelled event must not keep what its callback captured alive: a
   retransmission timer captures its packet and continuation. *)
let test_eventq_cancel_drops_closure () =
  let q = Eventq.create () in
  let w = Weak.create 1 in
  let ev = add_holding q w in
  Gc.full_major ();
  Alcotest.(check bool) "held while live" true (Weak.check w 0);
  Eventq.cancel q ev;
  Gc.full_major ();
  Alcotest.(check bool) "released on cancel" false (Weak.check w 0);
  Alcotest.(check int) "nothing pending" 0 (Eventq.live_count q);
  Alcotest.(check bool) "never fires" true (Eventq.pop q = None)

(* Nor may a fired one, though its slot is not reused yet and its
   handle is still held. *)
let test_eventq_fire_drops_closure () =
  let q = Eventq.create () in
  let w = Weak.create 1 in
  let ev = add_holding q w in
  fire_next q;
  Gc.full_major ();
  Alcotest.(check bool) "released on fire" false (Weak.check w 0);
  Eventq.cancel q ev;
  Alcotest.(check bool) "empty" true (Eventq.is_empty q)

(* The acceptance bar: the depth-2 sweep's report (and its JSON) is a
   pure function of the seed — byte-identical for domains 1, 2 and 4. *)
let test_sweep_domain_determinism () =
  let report domains =
    match Checker.sweep ~depth:2 ~limit:60 ~domains () with
    | Error _ -> Alcotest.fail "baseline violated"
    | Ok r -> r
  in
  let r1 = report 1 in
  let j1 = Checker.report_to_json r1 in
  Alcotest.(check int) "ran the limit" 60 r1.Checker.schedules_run;
  List.iter
    (fun domains ->
      let r = report domains in
      Alcotest.(check bool)
        (Printf.sprintf "report equal at domains=%d" domains)
        true (r = r1);
      Alcotest.(check string)
        (Printf.sprintf "json equal at domains=%d" domains)
        j1 (Checker.report_to_json r))
    [ 2; 4 ]

(* A violating sweep must converge on the same first failing schedule
   for any domain count, even though parallel chunks run speculative
   schedules past the violation.  An event budget of 260 lets the
   unfaulted baseline (252 events) finish but starves any schedule
   whose injected drop forces a retransmission timeout — the first such
   schedule sits in the middle of the enumeration, so the in-order scan
   and speculative-discard logic are both exercised. *)
let test_sweep_failure_domain_determinism () =
  let failing domains =
    match
      Checker.sweep ~depth:1 ~limit:40 ~max_events:260 ~domains ()
    with
    | Error _ -> Alcotest.fail "expected a clean baseline"
    | Ok r -> r
  in
  let r1 = failing 1 in
  Alcotest.(check bool) "a schedule violated" true
    (r1.Checker.failure <> None);
  Alcotest.(check bool) "stopped mid-sweep" true
    (r1.Checker.schedules_run > 1 && r1.Checker.schedules_run < 40);
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "failure report equal at domains=%d" domains)
        true
        (failing domains = r1))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "job basics" `Quick test_job_basics;
    Alcotest.test_case "pool result ordering" `Quick test_pool_ordering;
    Alcotest.test_case "pool empty and single" `Quick
      test_pool_empty_and_single;
    Alcotest.test_case "pool failure deterministic" `Quick
      test_pool_failure_deterministic;
    Alcotest.test_case "persistent workers reused" `Quick
      test_pool_persistent_reuse;
    Alcotest.test_case "nested run falls back" `Quick test_pool_nested_run;
    Alcotest.test_case "event kind interning" `Quick test_kind_interning;
    Alcotest.test_case "eventq eager removal" `Quick
      test_eventq_eager_removal;
    Alcotest.test_case "eventq cancel after fire" `Quick
      test_eventq_cancel_after_fire;
    Alcotest.test_case "eventq cancel drops closure" `Quick
      test_eventq_cancel_drops_closure;
    Alcotest.test_case "eventq fired event drops closure" `Quick
      test_eventq_fire_drops_closure;
    Alcotest.test_case "sweep domain determinism" `Slow
      test_sweep_domain_determinism;
    Alcotest.test_case "sweep failure domain determinism" `Slow
      test_sweep_failure_domain_determinism;
  ]
