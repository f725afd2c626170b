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
   adds a word per event or per packet shows.  The lazily purged
   record-per-event heap before the indexed one took 13 words per engine
   step (a 9-word event record, a [Some] for its born time and one on
   pop) and 978 words per exchange here (1,015 per op in
   vbench's ipc_pingpong).  The exchange figure is also the first check
   of lib/sim/trace.ml's promise that an untraced run allocates nothing
   for tracing.  Every minor-words pin is for OCaml 5.1 native code built
   with the workspace's default (release) profile: the dev profile's
   -opaque stops cross-module inlining, which changes what allocates
   (100 exchanges took 68,900 words under dev, before the kernel's int
   tables, and 67,900 under release).  The event count pins the events
   per exchange: CPU time that nothing waits for is a reservation, so an
   [ignore] callback put back on the event queue shows here (and took
   1,800 events).  The schedule figures pin what
   judging a checker schedule costs: with images rebuilt per schedule,
   a copy per file-system block read and fsck's per-inode block copies
   they were 19,471 (net) and 46,365 (crash) words.  A 512-byte block
   is 65 words here; objects over 256 words go straight to the major
   heap and do not show.  The boot storm pins the broadcast path: when
   the medium folded its port table for every frame, the storm took
   134,185 words, and while repair rounds made up for the gateway queue
   overflow that unpaced pages caused, 2,463 events and 115,158 words.
   The page-train pin covers remote MoveTo and MoveFrom: while each
   direction had its own copy of the train, 20 pairs took 102,018
   words (and the net and crash schedules 18,145 and 19,905).  While
   the medium gave every receiver its own 6-word copy of each frame and
   the gateway hashed every broadcast twice and rebuilt it to forward
   it, 100 exchanges took 65,900 words, 20 page-train pairs 101,798,
   the net and crash schedules 18,113 and 19,887, and the boot storm
   52,052.  While the file server built its extended-reply closure (with
   its optional lease grant) for every request, the net and crash
   schedules took 17,957 and 19,817.  While a packet was built, copied
   into its frame and copied out again on arrival (a page-train fragment
   four times), a NIC transmission built its queue closure even with
   the buffer free, the kernel's remote reply built a local closure and
   its alien lookups an option each, and before the queue had its
   two-int front slot, 100 exchanges took 64,900 words, 20 page-train
   pairs 100,798, the net and crash schedules 17,946 and 19,794, and the
   boot storm 36,532.  While the file system's block cache and
   transaction buffers were polymorphic Hashtbls, its cache started at
   512 buckets (a major-heap array every clone copied) and fsck viewed
   its inode block once per inode and built its implied bitmap as one
   2 KB string in the major heap, the net and crash schedules took
   15,593 and 18,939; the net figure rose to 15,610 because the clone's
   smaller bucket array and fsck's per-block bitmap now allocate in the
   minor heap, where they show.  While a park kept a [resumed] ref and a
   resume closure over it, and an engine did not register its processes
   (so nothing reclaimed a fiber still parked at the end of a run), 100
   exchanges took 58,200 words, 20 page-train pairs 59,278, the net and
   crash schedules 15,610 and 18,865, and the boot storm 36,534; a
   schedule now also pays for its teardown.  While the client's block
   cache was one polymorphic table keyed by (inum, block) pairs, which
   it folded whole on every revalidation, flush and drop, the net and
   crash schedules took 15,618 and 18,793.  While the generator boxed
   its state on every draw, each delivery event built a closure to walk
   its receivers, a broadcast rebuilt the fan-out list up to its source,
   the gateway built a key record per broadcast heard and boot clients
   kept a [bool array] page map, 100 exchanges took 57,500 words, 20
   page-train pairs 59,158, the net and crash schedules 15,599 and
   18,760, and the boot storm 36,536; ten broadcasts to 64 and to 128
   ports took 590 and 2,210 words, where the last pin now reads 300
   for both.  While the file client decoded every extended reply into
   a tuple and copied it into another, wrote a request's name once per
   attempt, built a retry closure per request and kept its versions,
   leases and open files in three polymorphic tables, and the server
   built a closure to find a free handle, the net and crash schedules
   took 15,451 and 18,691.  While every park stored a fresh [Blocked]
   state, every [Self] answer built its handler, the kernel found its
   caller through [Self], each per-event scheduler boxed its kind in a
   [Some] and int tables probed through [Hashtbl.Make]'s closures, 100
   exchanges took 56,500 words, 20 page-train pairs 58,158, the net and
   crash schedules 15,383 and 18,602, and the boot storm 28,824.  While
   every CPU wait parked the process (an effect, a continuation, a
   queue event and a resume), even a grant that was provably the next
   event, and a remote Reply parked for its NIC copy-out, 100 exchanges
   took 47,900 words, 20 page-train pairs 54,752, the net and crash
   schedules 14,160 and 17,606, and the boot storm 26,634; the storm
   rose by the three words its engine's tail and drain fields take.
   While only a process could run a CPU wait in place, a plain
   callback's CPU waits were all queued events and every remote Reply
   built its bookkeeping closure, 100 exchanges took 40,200 words and
   ran 300 grants in place, 20 page-train pairs 52,872, the net and
   crash schedules 13,510 and 17,154, and the boot storm 26,637 (it
   rose by the two memo words every int table now holds).  The
   in-place pin counts the grants that run without a queued event: 10
   of an exchange's 16 events (the NIC read-in, the dispatch charge and
   the context switch at each end, the Send's copy-out, and the three
   that ran in place before), the 16 unchanged.  While a medium kept
   its broadcast order as lists and gave each broadcasting port a list
   of the others, boot clients kept a page map each, and every
   [Vsim.Itbl] walk built a closure for its bucket loop, 20 page-train
   pairs took 51,552 words (one walk per pair built one), the net
   and crash schedules 13,399 and 17,100, and the boot storm 26,647.
   The storm rose by 297 words: 128 page rows of 4 words, their 129-word
   array and the 4-word closure that builds them replace sixteen 18-word
   client maps and the clients' 16 map fields (+341); the two client
   handlers capture the map and the client builder no longer captures
   the configuration (+1); the two media's arrays (22 and 20 words),
   fan records (5 each), options (2 each) and tap lists (3 each) replace
   their port and tap lists (63) and the boot server's list of the
   others (24) (-25); and the four table walks that built those lists
   no longer build a 5-word closure each (-20).  While a unicast walked
   a list of its targets (its destination consed onto the taps) beside
   the broadcast fan, 100 exchanges took 38,000 words, 20 page-train
   pairs 51,452, the net and crash schedules 13,329 and 17,040, and the
   boot storm 26,944.  A unicast's delivery closure now holds the fan,
   the frame and two slots, 2 words less than its closure and list cell
   took, a broadcast's holds what it held, and a fan no longer keeps a
   list of its taps. *)
let test_host_allocation_gate () =
  Alcotest.(check int) "minor words for 1000 engine steps" 0
    (marginal_minor_words engine_steps 1000);
  Alcotest.(check int) "minor words for 100 remote S-R-R exchanges" 37_600
    (marginal_minor_words remote_exchanges 100);
  let fired, in_place = marginal_events 100 in
  Alcotest.(check int) "events fired for 100 remote S-R-R exchanges" 1_600
    fired;
  Alcotest.(check int) "grants run in place for 100 remote S-R-R exchanges"
    1_000 in_place;
  Alcotest.(check int) "minor words for 20 remote 4 KB MoveTo+MoveFrom pairs"
    51_052 (marginal_minor_words remote_moves 20);
  Alcotest.(check int) "minor words for a fault-free net schedule" 13_271
    (schedule_minor_words Vcheck.Checker.Scenario.net);
  Alcotest.(check int) "minor words for a fault-free crash schedule" 17_014
    (schedule_minor_words Vcheck.Checker.Scenario.crash);
  let events, words = boot_storm_cost () in
  Alcotest.(check int) "events fired for a 16-client boot storm" 1_092 events;
  Alcotest.(check int) "minor words for a 16-client boot storm" 26_874 words;
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
