(* Tests for the discrete-event engine, fibers and statistics. *)

let add q ~time fn = Vsim.Eventq.add q ~time ~kind:Vsim.Eventq.Kind.other fn

let test_eventq_order () =
  let q = Vsim.Eventq.create () in
  let fired = ref [] in
  let add time tag = ignore (add q ~time (fun () -> fired := tag :: !fired)) in
  add 30 "c";
  add 10 "a";
  add 20 "b";
  add 10 "a2";
  let rec drain () =
    let fn = Vsim.Eventq.take_due q ~limit:max_int in
    if fn != Vsim.Eventq.idle then begin
      fn ();
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list string))
    "time order, FIFO within a time"
    [ "a"; "a2"; "b"; "c" ]
    (List.rev !fired)

let test_eventq_cancel () =
  let q = Vsim.Eventq.create () in
  let fired = ref 0 in
  let ev1 = add q ~time:10 (fun () -> incr fired) in
  let _ev2 = add q ~time:20 (fun () -> incr fired) in
  Vsim.Eventq.cancel q ev1;
  Vsim.Eventq.cancel q Vsim.Eventq.none;
  Alcotest.(check int) "live count" 1 (Vsim.Eventq.live_count q);
  Alcotest.(check int) "next is 20" 20 (Vsim.Eventq.top_time q);
  Alcotest.(check bool) "not due by 19" true
    (Vsim.Eventq.take_due q ~limit:19 == Vsim.Eventq.idle);
  Alcotest.(check int) "still live" 1 (Vsim.Eventq.live_count q);
  (Vsim.Eventq.take_due q ~limit:20) ();
  Alcotest.(check int) "taken at 20" 20 (Vsim.Eventq.taken_time q);
  (match Vsim.Eventq.add q ~time:30 ~kind:Vsim.Eventq.Kind.other
           Vsim.Eventq.idle with
  | (_ : Vsim.Eventq.handle) -> Alcotest.fail "scheduled Eventq.idle"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "one fired" 1 !fired;
  Alcotest.(check bool) "now empty" true (Vsim.Eventq.is_empty q)

(* The front slot's transitions, one by one: an earlier event displaces
   the front into the heap, an event at the front's time goes behind it,
   cancelling the front leaves the heap's root earliest, and a stale
   handle whose slot the front now reuses cancels nothing. *)
let test_eventq_front_slot () =
  let q = Vsim.Eventq.create () in
  let fired = ref [] in
  let add time tag = add q ~time (fun () -> fired := tag :: !fired) in
  let take () = (Vsim.Eventq.take_due q ~limit:max_int) () in
  let a = add 10 "a" in
  let (_ : Vsim.Eventq.handle) = add 20 "b" in
  let (_ : Vsim.Eventq.handle) = add 5 "c" in
  Alcotest.(check int) "earlier event is first" 5 (Vsim.Eventq.top_time q);
  let (_ : Vsim.Eventq.handle) = add 5 "c2" in
  Alcotest.(check int) "four live" 4 (Vsim.Eventq.live_count q);
  take ();
  take ();
  Alcotest.(check (list string)) "a tie goes behind the front" [ "c"; "c2" ]
    (List.rev !fired);
  let d = add 1 "d" in
  Vsim.Eventq.cancel q d;
  Alcotest.(check int) "cancelled front: the heap's root is next" 10
    (Vsim.Eventq.top_time q);
  take ();
  (* [a] fired; [e] reuses its slot and, earliest, takes the front. *)
  let e = add 15 "e" in
  Vsim.Eventq.cancel q a;
  Alcotest.(check int) "stale handle cancels nothing" 2
    (Vsim.Eventq.live_count q);
  Alcotest.(check int) "e is the front" 15 (Vsim.Eventq.top_time q);
  Vsim.Eventq.cancel q d;
  Vsim.Eventq.cancel q Vsim.Eventq.none;
  Alcotest.(check int) "still two" 2 (Vsim.Eventq.live_count q);
  take ();
  Vsim.Eventq.cancel q e;
  take ();
  Alcotest.(check (list string)) "fired in order" [ "c"; "c2"; "a"; "e"; "b" ]
    (List.rev !fired);
  Alcotest.(check bool) "drained" true (Vsim.Eventq.is_empty q)

(* Model-based check: random [add], [cancel] and [take_due] on a bare
   queue against a reference list sorted by (time, seq), checking every
   observer after each step and the time and kind of each taken event.
   A take's limit is drawn from the times' range, so it often finds
   nothing due.  Times are drawn from a small range, so a
   new event often precedes the front, ties it, or lands behind the
   heap's root; [Cancel] names any handle ever issued, so fired,
   cancelled and slot-reused handles are common, and cancelling the
   front is too. *)
type eventq_op = Q_add of int | Q_cancel of int | Q_take of int

let eventq_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (5, map (fun t -> Q_add t) (int_bound 6));
        (2, map (fun i -> Q_cancel i) (int_bound 60));
        (4, map (fun l -> Q_take l) (int_bound 7));
      ]
  in
  let print = function
    | Q_add t -> Printf.sprintf "Add %d" t
    | Q_cancel i -> Printf.sprintf "Cancel %d" i
    | Q_take l -> Printf.sprintf "Take %d" l
  in
  QCheck.make ~print:QCheck.Print.(list print) (list_size (int_bound 150) op)

let test_eventq_model =
  let kinds =
    [| Vsim.Eventq.Kind.intern "test.even"; Vsim.Eventq.Kind.intern "test.odd" |]
  in
  Util.qtest ~count:500 "eventq matches sorted-list model"
    eventq_ops (fun ops ->
      let q = Vsim.Eventq.create () in
      let handles = ref [||] and model = ref [] and fired = ref (-1) in
      let observers_agree () =
        match !model with
        | [] -> Vsim.Eventq.is_empty q && Vsim.Eventq.live_count q = 0
        | (time, _) :: _ ->
            (not (Vsim.Eventq.is_empty q))
            && Vsim.Eventq.live_count q = List.length !model
            && Vsim.Eventq.top_time q = time
      in
      let step = function
        | Q_add time ->
            let id = Array.length !handles in
            let h =
              Vsim.Eventq.add q ~time ~kind:kinds.(id land 1) (fun () ->
                  fired := id)
            in
            handles := Array.append !handles [| h |];
            model := List.merge compare !model [ (time, id) ];
            true
        | Q_cancel i when Array.length !handles > 0 ->
            let id = i mod Array.length !handles in
            Vsim.Eventq.cancel q !handles.(id);
            model := List.filter (fun (_, j) -> j <> id) !model;
            true
        | Q_cancel _ -> true
        | Q_take limit -> (
            let fn = Vsim.Eventq.take_due q ~limit in
            match !model with
            | (time, id) :: rest when time <= limit ->
                fn ();
                model := rest;
                !fired = id
                && Vsim.Eventq.taken_time q = time
                && Vsim.Eventq.taken_kind q = kinds.(id land 1)
            | [] | _ :: _ -> fn == Vsim.Eventq.idle)
      in
      List.for_all (fun op -> step op && observers_agree ()) ops)

(* Random interleavings of add, cancel and pop on an engine, against a
   reference list of pending events kept in (time, id) order.  Ids are
   issued in add order, so they are the engine's insertion order.
   Small delays make same-instant adds common; [Cancel i] names any event
   ever added, so it also covers double cancel, cancel after fire and
   stale handles whose slot has since been reused; an [Add_cancelling]
   event's callback cancels another event through the engine. *)
type queue_op =
  | Add of int
  | Add_cancelling of int * int
  | Cancel of int
  | Pop

let pp_queue_op = function
  | Add d -> Printf.sprintf "Add %d" d
  | Add_cancelling (d, v) -> Printf.sprintf "Add_cancelling (%d, %d)" d v
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Pop -> "Pop"

let queue_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (4, map (fun d -> Add d) (int_bound 3));
        (1, map2 (fun d v -> Add_cancelling (d, v)) (int_bound 3) (int_bound 40));
        (3, map (fun i -> Cancel i) (int_bound 40));
        (4, return Pop);
      ]
  in
  QCheck.make ~print:QCheck.Print.(list pp_queue_op) (list_size (int_bound 120) op)

let test_engine_queue_model =
  Util.qtest ~count:500 "engine add/cancel/pop matches a reference model"
    queue_ops (fun ops ->
      let eng = Vsim.Engine.create () in
      let handles = ref [||] and model = ref [] and fired = ref [] in
      let model_cancel id =
        model := List.filter (fun (_, i, _) -> i <> id) !model
      in
      let handle id = !handles.(id mod Array.length !handles) in
      let add delay victim =
        let id = Array.length !handles in
        let time = Vsim.Engine.now eng + delay in
        let h =
          Vsim.Engine.at eng time (fun () ->
              fired := id :: !fired;
              Option.iter
                (fun v -> Vsim.Engine.cancel eng (fst (handle v)))
                victim)
        in
        handles := Array.append !handles [| (h, id) |];
        model := List.merge compare !model [ (time, id, victim) ]
      in
      let expected = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          (match op with
          | Add d -> add d None
          | Add_cancelling (d, v) -> add d (Some v)
          | Cancel _ when !handles = [||] -> ()
          | Cancel i ->
              let h, id = handle i in
              Vsim.Engine.cancel eng h;
              model_cancel id
          | Pop -> (
              let stepped = Vsim.Engine.step eng in
              match !model with
              | [] -> ok := !ok && not stepped
              | (_, id, victim) :: rest ->
                  model := rest;
                  expected := id :: !expected;
                  Option.iter (fun v -> model_cancel (snd (handle v))) victim));
          ok := !ok && Vsim.Engine.pending eng = List.length !model)
        ops;
      !ok && !fired = !expected)

let test_engine_run_until () =
  let eng = Vsim.Engine.create () in
  let fired = ref [] in
  ignore (Vsim.Engine.after eng 100 (fun () -> fired := 100 :: !fired));
  ignore (Vsim.Engine.after eng 200 (fun () -> fired := 200 :: !fired));
  Vsim.Engine.run ~until:150 eng;
  Alcotest.(check (list int)) "only first" [ 100 ] (List.rev !fired);
  Alcotest.(check int) "clock at until" 150 (Vsim.Engine.now eng);
  Vsim.Engine.run eng;
  Alcotest.(check (list int)) "both" [ 100; 200 ] (List.rev !fired);
  Alcotest.(check int) "clock at last event" 200 (Vsim.Engine.now eng)

let test_engine_no_past () =
  let eng = Vsim.Engine.create () in
  ignore (Vsim.Engine.after eng 100 ignore);
  Vsim.Engine.run eng;
  Alcotest.check_raises "past scheduling rejected"
    (Invalid_argument "Engine.at: time 50 is before now 100") (fun () ->
      ignore (Vsim.Engine.at eng 50 ignore))

let test_proc_sleep_join () =
  let eng = Vsim.Engine.create () in
  let log = ref [] in
  let p1 =
    Vsim.Proc.spawn eng ~name:"p1" (fun () ->
        Vsim.Proc.sleep 100;
        log := ("p1", Vsim.Engine.now eng) :: !log)
  in
  let _p2 =
    Vsim.Proc.spawn eng ~name:"p2" (fun () ->
        Vsim.Proc.join p1;
        log := ("p2", Vsim.Engine.now eng) :: !log)
  in
  Vsim.Engine.run eng;
  Alcotest.(check (list (pair string int)))
    "join woke after sleep"
    [ ("p1", 100); ("p2", 100) ]
    (List.rev !log);
  Alcotest.(check bool) "terminated" true (Vsim.Proc.terminated p1)

let test_proc_double_resume () =
  let eng = Vsim.Engine.create () in
  let resume_box = ref None in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vsim.Proc.suspend (fun resume ->
            resume_box := Some resume))
  in
  Vsim.Engine.run eng;
  let resume = Option.get !resume_box in
  resume ();
  Alcotest.check_raises "double resume rejected"
    (Invalid_argument "Proc: double resume of proc") (fun () -> resume ())

let test_proc_exn_propagates () =
  let eng = Vsim.Engine.create () in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () -> failwith "boom")
  in
  (try
     Vsim.Engine.run eng;
     Alcotest.fail "expected exception"
   with Failure m -> Alcotest.(check string) "message" "boom" m)

(* A fiber that parks forever inside [Fun.protect]; [fin] counts its
   finaliser's runs and [after] is set if it ever runs past the park. *)
let parked_in_protect eng ~fin ~after ?(box = ref None) name =
  Vsim.Proc.spawn eng ~name (fun () ->
      Fun.protect
        ~finally:(fun () -> incr fin)
        (fun () ->
          Vsim.Proc.suspend (fun resume ->
              box := Some resume);
          after := true))

(* The teardown unwinds a parked fiber, killed or not, running its
   finaliser once; it fires no event, moves neither the clock nor the
   queue, and a second call finds nothing to do. *)
let test_proc_reap () =
  let eng = Vsim.Engine.create () in
  let fin = ref 0 and after = ref false and box = ref None in
  let p = parked_in_protect eng ~fin ~after ~box "server" in
  let fin_k = ref 0 and after_k = ref false in
  let killed = parked_in_protect eng ~fin:fin_k ~after:after_k "victim" in
  let fired = ref 0 in
  ignore (Vsim.Engine.after eng 500 (fun () -> incr fired));
  Vsim.Engine.run ~until:100 eng;
  Vsim.Proc.kill killed;
  Alcotest.(check (pair int int)) "no finaliser before the teardown" (0, 0)
    (!fin, !fin_k);
  Vsim.Proc.reap eng;
  Alcotest.(check int) "parked fiber's finaliser ran" 1 !fin;
  Alcotest.(check int) "killed fiber's finaliser ran" 1 !fin_k;
  Alcotest.(check bool) "terminated" true (Vsim.Proc.terminated p);
  Alcotest.(check int) "no event fired" 0 !fired;
  Alcotest.(check int) "clock unchanged" 100 (Vsim.Engine.now eng);
  Alcotest.(check int) "queue unchanged" 1 (Vsim.Engine.pending eng);
  (Option.get !box) ();
  Alcotest.(check bool) "an earlier resume is a no-op" false !after;
  Vsim.Proc.reap eng;
  Alcotest.(check (pair int int)) "a second teardown is a no-op" (1, 1)
    (!fin, !fin_k);
  Vsim.Engine.run eng;
  Alcotest.(check int) "the engine still runs its queue" 1 !fired;
  Alcotest.(check bool) "neither fiber ran past its park" false
    (!after || !after_k)

(* A body that swallows the teardown and parks again is named; the
   teardown is refused from inside a callback, a fiber's included. *)
let test_proc_reap_misuse () =
  let eng = Vsim.Engine.create () in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng ~name:"stubborn" (fun () ->
        try Vsim.Proc.suspend ignore
        with _ -> Vsim.Proc.suspend ignore)
  in
  Vsim.Engine.run eng;
  Alcotest.check_raises "parking again is reported"
    (Invalid_argument "Proc.reap: stubborn parked again after its teardown")
    (fun () -> Vsim.Proc.reap eng);
  let refused =
    Invalid_argument "Proc.reap: called inside a running callback"
  in
  let eng = Vsim.Engine.create () in
  ignore (Vsim.Engine.after eng 0 (fun () -> Vsim.Proc.reap eng));
  Alcotest.check_raises "refused in a callback" refused (fun () ->
      Vsim.Engine.run eng);
  let eng = Vsim.Engine.create () in
  let (_ : Vsim.Proc.t) = Vsim.Proc.spawn eng (fun () -> Vsim.Proc.reap eng) in
  Alcotest.check_raises "refused in a fiber" refused (fun () ->
      ignore (Vsim.Engine.step eng));
  Vsim.Proc.reap eng

let vm_rss_kb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmRSS line"
        | Some l -> (
            match String.split_on_char ':' l with
            | [ "VmRSS"; v ] -> Scanf.sscanf v " %d kB" Fun.id
            | _ -> go ())
      in
      go ())

(* 20,000 engines, each left with a fiber parked 40 frames deep, then
   reaped: the stacks go back to the runtime, so the resident set stays
   flat.  Without the teardown the same loop grew it by about 25 MB. *)
let test_proc_reap_memory () =
  if not (Sys.file_exists "/proc/self/status") then Alcotest.skip ();
  let rec deep n =
    if n = 0 then Vsim.Proc.suspend (fun (_ : int -> _) -> ())
    else 1 + deep (n - 1)
  in
  let engines n =
    for _ = 1 to n do
      let eng = Vsim.Engine.create () in
      let (_ : Vsim.Proc.t) =
        Vsim.Proc.spawn eng (fun () -> ignore (deep 40))
      in
      Vsim.Engine.run eng;
      Vsim.Proc.reap eng
    done
  in
  engines 1_000;
  Gc.full_major ();
  let before = vm_rss_kb () in
  engines 20_000;
  Gc.full_major ();
  let grown = vm_rss_kb () - before in
  if grown >= 8 * 1024 then
    Alcotest.failf "VmRSS grew by %d KB over 20,000 reaped engines" grown

let test_determinism () =
  let trace seed =
    let eng = Vsim.Engine.create ~seed () in
    let log = Buffer.create 64 in
    for i = 1 to 5 do
      let delay = Vsim.Rng.int (Vsim.Engine.rng eng) 1000 in
      ignore
        (Vsim.Engine.after eng delay (fun () ->
             Buffer.add_string log
               (Printf.sprintf "%d@%d;" i (Vsim.Engine.now eng))))
    done;
    Vsim.Engine.run eng;
    Buffer.contents log
  in
  Alcotest.(check string) "same seed, same trace" (trace 42L) (trace 42L);
  Alcotest.(check bool)
    "different seed, different trace" true
    (trace 42L <> trace 43L)

let test_stat_acc () =
  let acc = Vsim.Stat.Acc.create () in
  List.iter (Vsim.Stat.Acc.add acc) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Vsim.Stat.Acc.count acc);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Vsim.Stat.Acc.mean acc);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Vsim.Stat.Acc.stddev acc);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Vsim.Stat.Acc.min acc);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Vsim.Stat.Acc.max acc)

let test_stat_series () =
  let s = Vsim.Stat.Series.create () in
  for i = 1 to 100 do
    Vsim.Stat.Series.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Vsim.Stat.Series.percentile s 50.0);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Vsim.Stat.Series.percentile s 95.0);
  Alcotest.(check (float 1e-9)) "median after more adds" 50.0
    (Vsim.Stat.Series.median s);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Vsim.Stat.Series.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Vsim.Stat.Series.min s);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Vsim.Stat.Series.max s)

let test_rng_bounds =
  Util.qtest "rng int stays in bounds"
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Vsim.Rng.create seed in
      let ok = ref true in
      for _ = 1 to 100 do
        let v = Vsim.Rng.int rng bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_rng_bernoulli () =
  let rng = Vsim.Rng.create 7L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Vsim.Rng.bernoulli rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  if Float.abs (p -. 0.3) > 0.01 then
    Alcotest.failf "bernoulli(0.3) frequency %.4f" p

(* The generator's stream is part of every simulated result: pin its
   first outputs for two seeds (the values the boxed-state generator
   gave), and check that a draw allocates nothing. *)
let test_rng_stream () =
  let draws seed =
    let r = Vsim.Rng.create seed in
    let a = List.init 3 (fun _ -> Vsim.Rng.int64 r) in
    let b = List.init 4 (fun _ -> Vsim.Rng.int r 1_000_000) in
    let c = List.init 2 (fun _ -> Vsim.Rng.float r 1.0) in
    let d = Vsim.Rng.int64 (Vsim.Rng.split r) in
    (a, b, c, d)
  in
  let check seed (a, b, c, d) =
    let a', b', c', d' = draws seed in
    let name what = Printf.sprintf "seed %Ld: %s" seed what in
    Alcotest.(check (list int64)) (name "int64") a a';
    Alcotest.(check (list int)) (name "int") b b';
    Alcotest.(check (list (float 0.0))) (name "float") c c';
    Alcotest.(check int64) (name "split") d d'
  in
  check 1L
    ( [ 0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL ],
      [ 445058; 742190; 132512; 966761 ],
      [ 0x1.0bcf761e244fp-1; 0x1.245c6378d5f8ep-2 ],
      3159128151887096807L );
  check 42L
    ( [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L ],
      [ 563941; 490812; 747265; 406231 ],
      [ 0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2 ],
      3299762934642087680L );
  let r = Vsim.Rng.create 7L in
  let n = ref 0 and x = ref 0.0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    n := !n + Vsim.Rng.int r 10
  done;
  let w1 = Gc.minor_words () in
  for _ = 1 to 1000 do
    x := !x +. Vsim.Rng.float r 1.0
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check int) "minor words for 1000 int draws" 0
    (int_of_float (w1 -. w0));
  Alcotest.(check int) "minor words for 1000 float draws" 0
    (int_of_float (w2 -. w1));
  Alcotest.(check bool) "draws used" true (!n >= 0 && !x >= 0.0)

let test_time_pp () =
  Alcotest.(check string) "ms" "3.18" (Format.asprintf "%a" Vsim.Time.pp_ms 3_180_000);
  Alcotest.(check string) "adaptive us" "2.50us" (Format.asprintf "%a" Vsim.Time.pp 2_500);
  Alcotest.(check int) "of_float_ms" 3_180_000 (Vsim.Time.of_float_ms 3.18)

(* Itbl's hash is the runtime's, bit for bit, on every int. *)
let test_itbl_hash () =
  List.iter
    (fun i ->
      Alcotest.(check int) (string_of_int i) (Hashtbl.hash i)
        (Vsim.Itbl.hash i))
    [ 0; 1; -1; max_int; min_int; max_int - 1; min_int + 1; 1 lsl 31;
      (1 lsl 31) - 1; -(1 lsl 31); 1 lsl 32; (1 lsl 32) - 1; 1 lsl 61;
      -(1 lsl 61); (2 lsl 32) lor 7 ];
  for i = -70_000 to 70_000 do
    if Vsim.Itbl.hash i <> Hashtbl.hash i then
      Alcotest.failf "Itbl.hash %d = %d, Hashtbl.hash = %d" i
        (Vsim.Itbl.hash i) (Hashtbl.hash i)
  done

let test_itbl_hash_random =
  Util.qtest "itbl hash equals Hashtbl.hash" QCheck.int (fun i ->
      Vsim.Itbl.hash i = Hashtbl.hash i)

(* The same operations on an Itbl and on a polymorphic Hashtbl give
   the same answers, through resizes and collisions: every probe, the
   length, the [iter] and [fold] orders after each step, what a walk
   sees when its own callback replaces and removes (a resize from inside
   a traversal must copy cells exactly where the Stdlib's does, or the
   walk visits other bindings), and a copy whose updates diverge from
   the original's.  [Reset] is followed by reuse. *)
module type Int_table = sig
  type 'a t

  val create : int -> 'a t
  val reset : 'a t -> unit
  val copy : 'a t -> 'a t
  val replace : 'a t -> int -> 'a -> unit
  val remove : 'a t -> int -> unit
  val find : 'a t -> int -> 'a
  val find_opt : 'a t -> int -> 'a option
  val mem : 'a t -> int -> bool
  val length : 'a t -> int
  val iter : (int -> 'a -> unit) -> 'a t -> unit
  val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
  val filter_map_inplace : (int -> 'a -> 'a option) -> 'a t -> unit
end

module Poly_table : Int_table = struct
  type 'a t = (int, 'a) Hashtbl.t

  let create n = Hashtbl.create n
  let reset = Hashtbl.reset
  let copy = Hashtbl.copy
  let replace = Hashtbl.replace
  let remove = Hashtbl.remove
  let find = Hashtbl.find
  let find_opt = Hashtbl.find_opt
  let mem = Hashtbl.mem
  let length = Hashtbl.length
  let iter = Hashtbl.iter
  let fold = Hashtbl.fold
  let filter_map_inplace = Hashtbl.filter_map_inplace
end

type itbl_op =
  | T_replace of int * int
  | T_remove of int
  | T_reset
  | T_filter of int  (* drop the keys this divides *)
  | T_walk_update of int  (* replaces and removes from inside an [iter] *)

let itbl_ops =
  let open QCheck.Gen in
  let key = int_range (-3000) 300_000 in
  let op =
    frequency
      [
        (8, map2 (fun k v -> T_replace (k, v)) key small_nat);
        (3, map (fun k -> T_remove k) key);
        (1, return T_reset);
        (1, map (fun n -> T_filter n) (int_range 2 9));
        (1, map (fun c -> T_walk_update c) (int_range 1 1000));
      ]
  in
  let print = function
    | T_replace (k, v) -> Printf.sprintf "Replace (%d, %d)" k v
    | T_remove k -> Printf.sprintf "Remove %d" k
    | T_reset -> "Reset"
    | T_filter n -> Printf.sprintf "Filter %d" n
    | T_walk_update c -> Printf.sprintf "Walk_update %d" c
  in
  QCheck.make ~print:QCheck.Print.(list print) (list_size (int_bound 300) op)

(* Everything [ops] lets an observer see of a table, as int lists. *)
module Observe (T : Int_table) = struct
  let walk t =
    let seen = ref [] in
    T.iter (fun k v -> seen := v :: k :: !seen) t;
    List.rev !seen

  let fold_walk t = T.fold (fun k v acc -> k :: v :: acc) t []

  let probe t k =
    let found =
      match T.find t k with v -> [ 1; v ] | exception Not_found -> [ 0 ]
    in
    let found_opt =
      match T.find_opt t k with Some v -> [ 1; v ] | None -> [ 0 ]
    in
    found @ found_opt @ [ Bool.to_int (T.mem t k); T.length t ]

  (* Visited bindings, while the callback rebinds a key derived from each
     of the first 40 and removes another, so the walk's own inserts can
     resize the table under it. *)
  let walk_update t c =
    let seen = ref [] and n = ref 0 in
    T.iter
      (fun k v ->
        seen := v :: k :: !seen;
        incr n;
        if !n <= 40 then begin
          T.replace t ((k * 31) + c) (v + c);
          T.remove t (k + c)
        end)
      t;
    List.rev !seen

  let step t = function
    | T_replace (k, v) ->
        T.replace t k v;
        probe t k @ probe t (k + 1)
    | T_remove k ->
        T.remove t k;
        probe t k
    | T_reset ->
        T.reset t;
        [ T.length t ]
    | T_filter n ->
        T.filter_map_inplace
          (fun k v -> if k mod n = 0 then None else Some (v + 1))
          t;
        [ T.length t ]
    | T_walk_update c -> walk_update t c

  let run ops =
    let t = T.create 4 in
    let trace = List.map (fun op -> step t op @ walk t @ fold_walk t) ops in
    let c = T.copy t in
    List.iteri
      (fun i k ->
        if i mod 2 = 0 then (T.replace c k i; T.remove t k)
        else (T.remove c k; T.replace t (k + 7) i))
      (List.filteri (fun i _ -> i mod 2 = 0) (walk t));
    trace @ [ walk t; fold_walk t; walk c; fold_walk c; [ T.length c ] ]
end

module Observe_itbl = Observe (Vsim.Itbl)
module Observe_poly = Observe (Poly_table)

let test_itbl_walk_order =
  Util.qtest "itbl walks in Hashtbl order" itbl_ops (fun ops ->
      Observe_itbl.run ops = Observe_poly.run ops)

(* Itbl's lookup memo against a Stdlib [Hashtbl]: seeded random
   sequences over a small key pool, so the memo hits and goes stale
   often.  Steps replace, remove, probe ([find], [find_opt], [mem]),
   reset, filter in place, copy the table into a second slot, swap the
   two slots (so the copy and the original are both used on), and walk
   the table while the walk's first visit inserts enough keys to
   resize it by copying cells.  After every step every key of the pool
   is probed in both slots and both are walked, and all of it must
   equal the Hashtbl's. *)
type memo_op =
  | M_replace of int * int
  | M_remove of int
  | M_probe of int
  | M_reset
  | M_filter of int
  | M_copy
  | M_swap
  | M_walk_resize

let show_memo_op = function
  | M_replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | M_remove k -> Printf.sprintf "remove %d" k
  | M_probe k -> Printf.sprintf "probe %d" k
  | M_reset -> "reset"
  | M_filter n -> Printf.sprintf "filter %d" n
  | M_copy -> "copy"
  | M_swap -> "swap"
  | M_walk_resize -> "walk-resize"

let memo_pool = Array.init 24 (fun i -> if i < 20 then i else (i * 65_537) + 3)

let gen_memo_op st =
  let key () = memo_pool.(Random.State.int st (Array.length memo_pool)) in
  match Random.State.int st 40 with
  | n when n < 14 -> M_replace (key (), Random.State.int st 1000)
  | n when n < 22 -> M_remove (key ())
  | n when n < 32 -> M_probe (key ())
  | 32 -> M_reset
  | 33 | 34 -> M_filter (2 + Random.State.int st 4)
  | 35 | 36 -> M_copy
  | 37 | 38 -> M_swap
  | _ -> M_walk_resize

module Memo_model (T : Int_table) = struct
  let walk t =
    let seen = ref [] in
    T.iter (fun k v -> seen := (k, v) :: !seen) t;
    List.rev !seen

  let probe t k =
    ( (match T.find t k with v -> Some v | exception Not_found -> None),
      T.find_opt t k,
      T.mem t k )

  (* The two slots' probes and walks after each step of [ops]. *)
  let run ops =
    let a = ref (T.create 4) and b = ref (T.create 4) in
    let fresh = ref 1_000_000 in
    let step = function
      | M_replace (k, v) -> T.replace !a k v
      | M_remove k -> T.remove !a k
      | M_probe k -> ignore (probe !a k)
      | M_reset -> T.reset !a
      | M_filter n ->
          T.filter_map_inplace
            (fun k v -> if k mod n = 0 then None else Some (v + 1))
            !a
      | M_copy -> b := T.copy !a
      | M_swap ->
          let t = !a in
          a := !b;
          b := t
      | M_walk_resize ->
          let first = ref true in
          T.iter
            (fun _ _ ->
              if !first then begin
                first := false;
                (* Past the resize threshold of twice the bucket count,
                   whatever the table's size now. *)
                for _ = 1 to 2 * (T.length !a + 16) do
                  incr fresh;
                  T.replace !a !fresh 0
                done
              end)
            !a
    in
    List.map
      (fun op ->
        step op;
        let probes t = Array.to_list (Array.map (probe t) memo_pool) in
        (probes !a, probes !b, walk !a, walk !b))
      ops
end

module Memo_itbl = Memo_model (Vsim.Itbl)
module Memo_poly = Memo_model (Poly_table)

let test_itbl_memo_model () =
  let st = Random.State.make [| 36 |] in
  for i = 1 to 300 do
    let ops = List.init (Random.State.int st 120) (fun _ -> gen_memo_op st) in
    let got = Memo_itbl.run ops and want = Memo_poly.run ops in
    List.iteri
      (fun j ((g, w), op) ->
        if g <> w then
          Alcotest.failf "sequence %d differs from Hashtbl after step %d (%s)"
            i j (show_memo_op op))
      (List.combine (List.combine got want) ops)
  done

let suite =
  [
    Alcotest.test_case "eventq order" `Quick test_eventq_order;
    Alcotest.test_case "eventq cancel" `Quick test_eventq_cancel;
    test_eventq_model;
    Alcotest.test_case "eventq front slot" `Quick test_eventq_front_slot;
    test_engine_queue_model;
    Alcotest.test_case "engine run until" `Quick test_engine_run_until;
    Alcotest.test_case "engine rejects past" `Quick test_engine_no_past;
    Alcotest.test_case "proc sleep and join" `Quick test_proc_sleep_join;
    Alcotest.test_case "proc double resume" `Quick test_proc_double_resume;
    Alcotest.test_case "proc exn propagates" `Quick test_proc_exn_propagates;
    Alcotest.test_case "proc reap" `Quick test_proc_reap;
    Alcotest.test_case "proc reap misuse" `Quick test_proc_reap_misuse;
    Alcotest.test_case "proc reap memory" `Quick test_proc_reap_memory;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "stat acc" `Quick test_stat_acc;
    Alcotest.test_case "stat series" `Quick test_stat_series;
    test_rng_bounds;
    Alcotest.test_case "rng bernoulli" `Quick test_rng_bernoulli;
    Alcotest.test_case "rng stream and allocation" `Quick test_rng_stream;
    Alcotest.test_case "time pretty-printing" `Quick test_time_pp;
    Alcotest.test_case "itbl hash" `Quick test_itbl_hash;
    test_itbl_hash_random;
    test_itbl_walk_order;
    Alcotest.test_case "itbl memo model" `Quick test_itbl_memo_model;
  ]
