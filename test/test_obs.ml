(* Observability: typed events, JSONL/Chrome sinks, span correlation,
   the metrics registry, and the Stat additions backing them. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg
module TB = Vworkload.Testbed


let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* One remote Send-Receive-Reply exchange per trial, as in the paper's
   kernel-performance rig. *)
let run_srr ?seed ~trials tb_fn =
  let tb = Util.testbed ?seed ~hosts:2 () in
  tb_fn tb;
  let k1 = TB.kernel tb 1 in
  let server = Vworkload.Rigs.start_echo (TB.kernel tb 2) in
  let elapsed = ref 0 in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      let eng = K.engine k1 in
      let t0 = Vsim.Engine.now eng in
      for _ = 1 to trials do
        ignore (K.send k1 msg server)
      done;
      elapsed := Vsim.Engine.now eng - t0);
  !elapsed

(* --- typed events and the JSONL sink --------------------------------- *)

let test_jsonl_roundtrip () =
  let buf = Buffer.create 4096 in
  let (_ : int) =
    run_srr ~trials:3 (fun tb ->
        (* The correlator re-emits span events into the same stream. *)
        let (_ : Vobs.Spans.t) = Vobs.Spans.attach tb.TB.eng in
        Vobs.Jsonl.attach tb.TB.eng (Buffer.add_string buf))
  in
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check bool) "trace is non-empty" true (List.length lines > 10);
  let names =
    List.map
      (fun line ->
        match Vobs.Json.parse line with
        | Error e -> Alcotest.failf "unparseable line %S: %s" line e
        | Ok json -> (
            (match Vobs.Json.member "ts" json with
            | Some (Vobs.Json.Int ts) ->
                Alcotest.(check bool) "ts >= 0" true (ts >= 0)
            | _ -> Alcotest.fail "missing ts");
            match Vobs.Json.member "name" json with
            | Some (Vobs.Json.Str n) -> n
            | _ -> Alcotest.fail "missing name"))
      lines
  in
  let count n = List.length (List.filter (String.equal n) names) in
  Alcotest.(check int) "three remote sends" 3 (count "send");
  Alcotest.(check int) "three completions" 3 (count "send_done");
  Alcotest.(check int) "three receives" 3 (count "receive");
  Alcotest.(check int) "spans close" 3 (count "span_close");
  Alcotest.(check bool) "packets on the wire" true (count "packet_tx" >= 6)

let test_topic_filter () =
  let buf = Buffer.create 4096 in
  let (_ : int) =
    run_srr ~trials:2 (fun tb ->
        Vobs.Jsonl.attach ~topics:[ "net" ] tb.TB.eng (Buffer.add_string buf))
  in
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.iter (fun line ->
         if line <> "" then
           match Vobs.Json.parse line with
           | Ok json ->
               Alcotest.(check string)
                 "only net events pass" "net"
                 (match Vobs.Json.member "topic" json with
                 | Some (Vobs.Json.Str t) -> t
                 | _ -> "?")
           | Error e -> Alcotest.failf "unparseable: %s" e)

let test_determinism () =
  let capture () =
    let buf = Buffer.create 4096 in
    let (_ : int) =
      run_srr ~seed:42L ~trials:5 (fun tb ->
          Vobs.Jsonl.attach tb.TB.eng (Buffer.add_string buf))
    in
    Buffer.contents buf
  in
  let a = capture () and b = capture () in
  Alcotest.(check bool) "byte-identical traces" true (String.equal a b)

let test_engine_isolation () =
  (* A sink attached to one engine must not observe another engine's
     events. *)
  let buf = Buffer.create 256 in
  let eng_a = Vsim.Engine.create () in
  let eng_b = Vsim.Engine.create () in
  Vobs.Jsonl.attach eng_a (Buffer.add_string buf);
  let ev = Vsim.Event.Collision { a = 1; b = 2 } in
  Vsim.Trace.event eng_b ev;
  Alcotest.(check string) "nothing from engine B" "" (Buffer.contents buf);
  Vsim.Trace.event eng_a ev;
  Alcotest.(check bool) "engine A observed" true (Buffer.length buf > 0)

(* --- spans ----------------------------------------------------------- *)

let test_span_balance () =
  let spans = ref None in
  let elapsed =
    run_srr ~trials:4 (fun tb -> spans := Some (Vobs.Spans.attach tb.TB.eng))
  in
  let t = Option.get !spans in
  Alcotest.(check int) "all spans closed" 0 (Vobs.Spans.open_count t);
  Alcotest.(check int) "one span per exchange" 4 (Vobs.Spans.closed t);
  let sum = ref 0 in
  List.iter
    (fun s ->
      Alcotest.(check string) "span ok" "ok" s.Vobs.Spans.status;
      Alcotest.(check int)
        "segments tile the span" (Vobs.Spans.total_ns s)
        (Vobs.Spans.segments_sum s);
      Alcotest.(check int)
        "seven segments" 7
        (List.length s.Vobs.Spans.segments);
      sum := !sum + Vobs.Spans.total_ns s)
    (Vobs.Spans.spans t);
  (* The client does nothing between exchanges, so the spans tile the
     measured window exactly: client-observed latency == span time. *)
  Alcotest.(check int) "spans account for all elapsed time" elapsed !sum

(* --- metrics --------------------------------------------------------- *)

let test_metrics_counts () =
  let reg = Vobs.Metrics.create () in
  let (_ : int) =
    run_srr ~trials:3 (fun tb -> Vobs.Metrics.attach reg tb.TB.eng)
  in
  let v name = Vsim.Stat.Counter.value (Vobs.Metrics.counter reg ~host:1 name) in
  Alcotest.(check int) "client remote sends" 3 (v "sends_remote");
  Alcotest.(check int) "client tx = request packets" 3 (v "packets_tx");
  Alcotest.(check int) "server receives" 3
    (Vsim.Stat.Counter.value (Vobs.Metrics.counter reg ~host:2 "receives"));
  let dump = Format.asprintf "%a" Vobs.Metrics.pp reg in
  Alcotest.(check bool) "table dump mentions sends_remote" true
    (contains dump "sends_remote");
  match Vobs.Json.parse (Vobs.Json.to_string (Vobs.Metrics.to_json reg)) with
  | Error e -> Alcotest.failf "metrics json: %s" e
  | Ok json -> (
      match Vobs.Json.member "host-1" json with
      | Some h1 ->
          Alcotest.(check bool) "host-1 has sends_remote" true
            (Vobs.Json.member "sends_remote" h1 = Some (Vobs.Json.Int 3))
      | None -> Alcotest.fail "missing host-1")

let test_metrics_kind_clash () =
  let reg = Vobs.Metrics.create () in
  Vobs.Metrics.add reg ~host:0 "x" 1;
  Alcotest.check_raises "histogram over counter"
    (Invalid_argument "Metrics.histogram: x@host0 is a counter") (fun () ->
      ignore (Vobs.Metrics.histogram reg ~host:0 "x"))

(* --- chrome trace ---------------------------------------------------- *)

let test_chrome_export () =
  let c = Vobs.Chrome_trace.create () in
  let (_ : int) =
    run_srr ~trials:2 (fun tb ->
        let (_ : Vobs.Spans.t) = Vobs.Spans.attach tb.TB.eng in
        Vobs.Chrome_trace.attach c tb.TB.eng)
  in
  Alcotest.(check bool) "events recorded" true (Vobs.Chrome_trace.count c > 0);
  match Vobs.Json.parse (Vobs.Chrome_trace.to_string c) with
  | Error e -> Alcotest.failf "chrome json: %s" e
  | Ok (Vobs.Json.List records) ->
      let phases =
        List.filter_map
          (fun r ->
            match Vobs.Json.member "ph" r with
            | Some (Vobs.Json.Str p) -> Some p
            | _ -> None)
          records
      in
      Alcotest.(check int) "every record has a phase" (List.length records)
        (List.length phases);
      let has p = List.exists (String.equal p) phases in
      Alcotest.(check bool) "metadata records" true (has "M");
      Alcotest.(check bool) "instants" true (has "i");
      Alcotest.(check bool) "span slices" true (has "X")
  | Ok _ -> Alcotest.fail "chrome trace is not a JSON array"

(* --- json ------------------------------------------------------------ *)

let test_json_escapes () =
  let j = Vobs.Json.Str "a\"b\\c\nd\te\r\x01" in
  let s = Vobs.Json.to_string j in
  Alcotest.(check string) "escaped"
    "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\"" s;
  match Vobs.Json.parse s with
  | Ok j' -> Alcotest.(check bool) "round trip" true (j = j')
  | Error e -> Alcotest.failf "parse: %s" e

let test_json_rejects_trailing () =
  match Vobs.Json.parse "{\"a\":1} x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted"

(* --- stat additions -------------------------------------------------- *)

let test_series_stddev () =
  let s = Vsim.Stat.Series.create () in
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Vsim.Stat.Series.stddev s);
  Vsim.Stat.Series.add s 4.0;
  Alcotest.(check (float 1e-9)) "single" 0.0 (Vsim.Stat.Series.stddev s);
  List.iter (Vsim.Stat.Series.add s) [ 7.0; 13.0; 16.0 ];
  (* sample stddev of {4,7,13,16}: mean 10, var (36+9+9+36)/3 = 30 *)
  Alcotest.(check (float 1e-9)) "sample stddev" (sqrt 30.0)
    (Vsim.Stat.Series.stddev s)

let test_series_percentile_edges () =
  let s = Vsim.Stat.Series.create () in
  Vsim.Stat.Series.add s 5.0;
  Alcotest.(check (float 1e-9)) "single p0" 5.0
    (Vsim.Stat.Series.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "single p100" 5.0
    (Vsim.Stat.Series.percentile s 100.0);
  List.iter (Vsim.Stat.Series.add s) [ 1.0; 9.0; 3.0 ];
  Alcotest.(check (float 1e-9)) "p0 is the minimum" 1.0
    (Vsim.Stat.Series.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p100 is the maximum" 9.0
    (Vsim.Stat.Series.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "p50 nearest-rank" 3.0
    (Vsim.Stat.Series.percentile s 50.0)

let test_histogram () =
  let h = Vsim.Stat.Histogram.create ~bounds:[| 10.0; 100.0 |] () in
  List.iter (Vsim.Stat.Histogram.add h) [ 1.0; 10.0; 50.0; 1000.0 ];
  Alcotest.(check int) "count" 4 (Vsim.Stat.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 1061.0 (Vsim.Stat.Histogram.sum h);
  (match Vsim.Stat.Histogram.buckets h with
  | [ (10.0, 2); (100.0, 1); (inf, 1) ] when inf = infinity -> ()
  | b ->
      Alcotest.failf "unexpected buckets: %s"
        (String.concat ";"
           (List.map (fun (x, c) -> Printf.sprintf "(%g,%d)" x c) b)));
  Alcotest.check_raises "bounds must increase"
    (Invalid_argument "Histogram.create: bounds must be strictly increasing")
    (fun () -> ignore (Vsim.Stat.Histogram.create ~bounds:[| 2.0; 1.0 |] ()))

(* Minor-heap words [f n] allocates for [2n] iterations minus those for
   [n]: set-up and the measurement itself cancel out, leaving the cost of
   [n] steady-state iterations.  An unmeasured [f n] first pays for the
   one-time set-up (lazy tables, first-use buffers) that would otherwise
   land in whichever measurement runs first, so the result does not
   depend on which tests ran before it. *)
let marginal_minor_words f n =
  f n;
  let words k =
    let w0 = Gc.minor_words () in
    f k;
    Gc.minor_words () -. w0
  in
  int_of_float (words (2 * n) -. words n)

(* [n] engine steps, each firing a preallocated closure that re-adds
   itself. *)
let engine_steps n =
  let eng = Vsim.Engine.create () in
  let rec tick () = ignore (Vsim.Engine.after eng 10 tick) in
  tick ();
  for _ = 1 to n do
    ignore (Vsim.Engine.step eng)
  done

(* [n] untraced remote 32-byte Send-Receive-Reply exchanges between two
   hosts, after one that warms the kernel tables up.  [prepare] sees the
   engine before anything is scheduled on it. *)
let remote_exchanges ?(prepare = ignore) n =
  let tb = TB.create ~hosts:2 () in
  prepare tb.TB.eng;
  let server = Vworkload.Rigs.start_echo (TB.kernel tb 2) in
  Util.run_as_process tb ~host:1 (fun _ ->
      let k = TB.kernel tb 1 and msg = Msg.create () in
      for _ = 0 to n do
        ignore (K.send k msg server)
      done)

(* [n] untraced remote 4 KB MoveTo and MoveFrom pairs, after one pair
   that warms the kernel tables up: a mover on host 2 writes into and
   reads back from the read/write segment a granter on host 1 holds out
   in a Send. *)
let remote_moves n =
  let tb = TB.create ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let mover =
    K.spawn k2 ~name:"mover" (fun _ ->
        let msg = Msg.create () in
        let granter = K.receive k2 msg in
        for _ = 0 to n do
          ignore (K.move_to k2 ~dst_pid:granter ~dst:0 ~src:0 ~count:4096);
          ignore (K.move_from k2 ~src_pid:granter ~dst:0 ~src:0 ~count:4096)
        done;
        ignore (K.reply k2 msg granter))
  in
  Util.run_as_process tb ~host:1 (fun _ ->
      let msg = Msg.create () in
      Msg.set_segment msg Msg.Read_write ~ptr:0 ~len:4096;
      Msg.set_no_piggyback msg;
      ignore (K.send k1 msg mover))

(* [n] processes spawned and destroyed in turn on one kernel, each run
   to its end: past the first 255, every spawn takes a slot a dead
   process held. *)
let spawn_destroy n =
  let tb = TB.create ~hosts:1 () in
  let k = TB.kernel tb 1 in
  for _ = 1 to n do
    K.destroy k (K.spawn k ignore);
    TB.run tb
  done;
  Vsim.Proc.reap tb.TB.eng

(* Events fired by [n] steady-state [remote_exchanges], and of those the
   ones fired in place, by the same difference as
   {!marginal_minor_words}. *)
let marginal_events n =
  let events k =
    let prof = Vsim.Profile.create () in
    remote_exchanges
      ~prepare:(fun eng ->
        ignore (Vsim.Engine.enable_profiling ~profile:prof eng))
      k;
    (Vsim.Profile.events prof, Vsim.Profile.in_place_total prof)
  in
  let fired_2n, in_place_2n = events (2 * n) in
  let fired_n, in_place_n = events n in
  (fired_2n - fired_n, in_place_2n - in_place_n)

(* Minor words of one fault-free schedule of [sc], judged, measured
   after a warm-up run has built its file-system images. *)
let schedule_minor_words (sc : Vcheck.Checker.Scenario.t) =
  let run () = ignore (sc.run []) in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  int_of_float (Gc.minor_words () -. w0)

(* Disk completions of one fault-free schedule of [sc], judged, after a
   warm-up run: those fired, and of them those fired in place. *)
let schedule_disk_completions (sc : Vcheck.Checker.Scenario.t) =
  ignore (sc.run []);
  let prof = Vsim.Profile.create () in
  Vsim.Engine.with_create_hook
    (Some (fun eng -> ignore (Vsim.Engine.enable_profiling ~profile:prof eng)))
    (fun () -> ignore (sc.run []));
  match List.assoc_opt "disk.complete" (Vsim.Profile.entries prof) with
  | Some e -> (e.Vsim.Profile.fires, e.in_place)
  | None -> (0, 0)

(* Direct major-heap words of one fault-free schedule of [sc], judged,
   after a warm-up run. *)
let schedule_direct_major_words (sc : Vcheck.Checker.Scenario.t) =
  let run () = ignore (sc.run []) in
  run ();
  Util.direct_major_words run

(* Events fired and minor words of one boot storm of 16 clients over the
   default two segments, measured after a warm-up storm.  Every PAGE is a
   broadcast, so this pins the medium's fan-out. *)
let boot_storm_cost () =
  let storm () =
    Vworkload.Boot.(run ~segments:(default_segments ~clients:16) ())
  in
  ignore (storm ());
  let w0 = Gc.minor_words () in
  let r = storm () in
  (r.Vworkload.Boot.events, int_of_float (Gc.minor_words () -. w0))

(* Minor words of ten fault-free broadcasts from one of [ports]
   stations on one medium, after a first broadcast has built the
   medium's fan-out arrays. *)
let broadcast_minor_words ports =
  let eng = Vsim.Engine.create () in
  let m = Vnet.Medium.create eng Vnet.Medium.config_10mb in
  for addr = 1 to ports do
    Vnet.Medium.attach m ~addr ~rx:ignore
  done;
  let frame =
    Vnet.Frame.make ~src:1 ~dst:Vnet.Addr.broadcast
      ~ethertype:Vnet.Frame.ethertype_raw (Bytes.make 64 'b')
  in
  let send () =
    Vnet.Medium.transmit m frame;
    Vsim.Engine.run eng
  in
  send ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10 do
    send ()
  done;
  int_of_float (Gc.minor_words () -. w0)

(* Pins the host allocation of the event path exactly, so a change that
   adds a word per event or per packet shows; CHANGES.md and the git
   history record how each figure moved.  Every minor-words pin is for
   OCaml 5.1 native code built with the workspace's default (release)
   profile: the dev profile's -opaque stops cross-module inlining, which
   changes what allocates.
   - Engine steps: the event queue allocates nothing per step.
   - Remote S-R-R exchanges: the per-packet path of the kernel, the NIC,
     the medium and the CPU grants, and the check of lib/sim/trace.ml's
     promise that an untraced run allocates nothing for tracing.  A word
     added to a process's reply wait shows here.  Finding a process by
     its pid's slot, with no [Itbl.find_opt] option per lookup, took it
     from 36,000 words to 35,600, and the page-train pairs from 50,500
     to 50,100.
   - Spawn and destroy: a process's descriptor, address space, queue and
     fiber, 96 words each (112 when the kernel kept local-id, fiber and
     fiber-to-process tables).
   - Events per exchange: CPU time that nothing waits for is a
     reservation, so an [ignore] callback put back on the event queue
     shows here.  The in-place count is the grants that run without a
     queued event: 10 of an exchange's 16 events.
   - Page-train pairs: a remote MoveTo and MoveFrom of 4 KB each, so a
     word per fragment or per train shows.
   - Net and crash schedules: what judging a checker schedule costs,
     testbed set-up and teardown included.  A 512-byte block is 65 words
     here.  Kernel tables that start at 16 buckets, not 64, CPU names
     built without [Printf], disk I/O that completes in place and name
     lookups resolved once took the net schedule from 16,713 words to
     15,957; the same and file-system reads that share the disk's block
     instead of copying it took the crash schedule from 17,396 to
     11,634.  Processes by slot, and page tables that reach only the
     highest page stored, took them to 14,627 and 11,205.
   - Disk completions of the fault-free crash schedule: its fibers hold
     the tail of their events and the zero-latency disk is idle, so
     every completion fires in place.
   - Direct major words: a block over 256 words goes straight to the
     major heap and shows there, not in the minor words; every scenario's
     fault-free schedule allocates none.
   - Boot storm: the broadcast path, where each medium holds a station
     array up to its highest attached address.
   - Broadcasts to 64 and 128 ports: the fan-out allocates nothing per
     receiver. *)
let test_host_allocation_gate () =
  Alcotest.(check int) "minor words for 1000 engine steps" 0
    (marginal_minor_words engine_steps 1000);
  Alcotest.(check int) "minor words for 100 remote S-R-R exchanges" 35_600
    (marginal_minor_words remote_exchanges 100);
  Alcotest.(check int) "minor words to spawn and destroy 1000 processes"
    96_000 (marginal_minor_words spawn_destroy 1000);
  let fired, in_place = marginal_events 100 in
  Alcotest.(check int) "events fired for 100 remote S-R-R exchanges" 1_600
    fired;
  Alcotest.(check int) "grants run in place for 100 remote S-R-R exchanges"
    1_000 in_place;
  Alcotest.(check int) "minor words for 20 remote 4 KB MoveTo+MoveFrom pairs"
    50_100 (marginal_minor_words remote_moves 20);
  Alcotest.(check int) "minor words for a fault-free net schedule" 14_627
    (schedule_minor_words Vcheck.Checker.Scenario.net);
  Alcotest.(check int) "minor words for a fault-free crash schedule" 11_205
    (schedule_minor_words Vcheck.Checker.Scenario.crash);
  let fired, in_place =
    schedule_disk_completions Vcheck.Checker.Scenario.crash
  in
  Alcotest.(check int) "disk completions of a fault-free crash schedule" 49
    fired;
  Alcotest.(check int)
    "disk completions of a fault-free crash schedule fired in place" fired
    in_place;
  List.iter
    (fun (sc : Vcheck.Checker.Scenario.t) ->
      Alcotest.(check int)
        ("direct major words for a fault-free " ^ sc.name ^ " schedule")
        0
        (schedule_direct_major_words sc))
    Vcheck.Checker.Scenario.all;
  let events, words = boot_storm_cost () in
  Alcotest.(check int) "events fired for a 16-client boot storm" 1_092 events;
  Alcotest.(check int) "minor words for a 16-client boot storm" 27_407 words;
  let words_n = broadcast_minor_words 64 in
  let words_2n = broadcast_minor_words 128 in
  if words_2n > words_n then
    Alcotest.failf
      "broadcast to 128 ports took %d minor words, to 64 ports %d: the \
       fan-out allocates per receiver"
      words_2n words_n

let suite =
  [
    Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "topic filter" `Quick test_topic_filter;
    Alcotest.test_case "deterministic traces" `Quick test_determinism;
    Alcotest.test_case "engine isolation" `Quick test_engine_isolation;
    Alcotest.test_case "span balance" `Quick test_span_balance;
    Alcotest.test_case "metrics counts" `Quick test_metrics_counts;
    Alcotest.test_case "metrics kind clash" `Quick test_metrics_kind_clash;
    Alcotest.test_case "chrome export" `Quick test_chrome_export;
    Alcotest.test_case "json escapes" `Quick test_json_escapes;
    Alcotest.test_case "json trailing input" `Quick test_json_rejects_trailing;
    Alcotest.test_case "series stddev" `Quick test_series_stddev;
    Alcotest.test_case "percentile edges" `Quick test_series_percentile_edges;
    Alcotest.test_case "histogram" `Quick test_histogram;
    Alcotest.test_case "host allocation gate" `Quick test_host_allocation_gate;
  ]
