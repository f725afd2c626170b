(* Workload library: distributions, recorder, testbed. *)

let test_think_distributions () =
  let rng = Vsim.Rng.create 11L in
  Alcotest.(check int) "zero" 0 (Vworkload.Think.sample Vworkload.Think.Zero rng);
  Alcotest.(check int) "constant" 500
    (Vworkload.Think.sample (Vworkload.Think.Constant 500) rng);
  for _ = 1 to 1000 do
    let v =
      Vworkload.Think.sample (Vworkload.Think.Uniform (100, 200)) rng
    in
    if v < 100 || v >= 200 then Alcotest.failf "uniform out of range: %d" v
  done;
  let acc = Vsim.Stat.Acc.create () in
  for _ = 1 to 20_000 do
    Vsim.Stat.Acc.add acc
      (float_of_int
         (Vworkload.Think.sample (Vworkload.Think.Exponential 1000) rng))
  done;
  let mean = Vsim.Stat.Acc.mean acc in
  if Float.abs (mean -. 1000.0) > 50.0 then
    Alcotest.failf "exponential mean %.1f" mean

let test_recorder () =
  let eng = Vsim.Engine.create () in
  let rec_ = Vworkload.Recorder.create eng ~warmup:(Vsim.Time.ms 10) () in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        (* During warmup: discarded. *)
        Vworkload.Recorder.measure rec_ (fun () -> Vsim.Proc.sleep (Vsim.Time.ms 5));
        Vsim.Proc.sleep (Vsim.Time.ms 10);
        for _ = 1 to 10 do
          Vworkload.Recorder.measure rec_ (fun () ->
              Vsim.Proc.sleep (Vsim.Time.ms 2))
        done)
  in
  Vsim.Engine.run eng;
  Alcotest.(check int) "warmup discarded" 10 (Vworkload.Recorder.count rec_);
  Alcotest.(check (float 0.01)) "mean" 2.0 (Vworkload.Recorder.mean_ms rec_);
  Alcotest.(check (float 0.01)) "p95" 2.0 (Vworkload.Recorder.p95_ms rec_);
  let thr = Vworkload.Recorder.throughput_per_sec rec_ in
  if Float.abs (thr -. 500.0) > 5.0 then
    Alcotest.failf "throughput %.1f ops/s" thr

let test_testbed_fs () =
  let tb = Util.testbed ~hosts:1 () in
  let fs =
    Vworkload.Testbed.make_test_fs tb ~files:[ ("a", 100); ("b", 2048) ] ()
  in
  Alcotest.(check bool) "a exists" true (Vfs.Fs.lookup fs "a" <> None);
  let inum = Option.get (Vfs.Fs.lookup fs "b") in
  let ok = ref false in
  Vworkload.Testbed.run_proc tb (fun () ->
      match Vfs.Fs.read fs ~inum ~pos:0 ~len:2048 with
      | Ok data ->
          let expect = Bytes.init 2048 Vworkload.Testbed.pattern_byte in
          ok := Bytes.equal data expect
      | Error e -> Alcotest.failf "read: %s" (Vfs.Fs.error_to_string e));
  Alcotest.(check bool) "content matches pattern" true !ok

let test_testbed_hosts () =
  let tb = Util.testbed ~hosts:3 () in
  Alcotest.(check int) "addresses are 1-based"
    2
    (Vworkload.Testbed.host tb 2).Vworkload.Testbed.addr;
  Alcotest.check_raises "bad index"
    (Invalid_argument "Testbed.host: no host 9") (fun () ->
      ignore (Vworkload.Testbed.host tb 9))

module R = Vworkload.Rigs

let m10 = Vhw.Cost_model.sun_10mhz
let net3 = Vnet.Medium.config_3mb

let test_time_trials () =
  Alcotest.check_raises "trials = 0"
    (Invalid_argument "Rigs.time_trials: trials must be >= 1") (fun () ->
      ignore (R.srr ~trials:0 ~cpu_model:m10 ~medium_config:net3
                ~server_host:2 ()));
  let local = R.srr ~cpu_model:m10 ~medium_config:net3 ~server_host:1 () in
  Alcotest.(check int) "one host: client cpu = server cpu" local.R.client_cpu
    local.R.server_cpu;
  let remote = R.srr ~cpu_model:m10 ~medium_config:net3 ~server_host:2 () in
  Alcotest.(check bool) "remote exchange costs more than local" true
    (remote.R.elapsed > local.R.elapsed)

(* A move that fails is not timed: the cost of 30 Bad_address returns is
   no transfer time. *)
let test_move_fails_loudly () =
  match
    R.move ~cpu_model:m10 ~medium_config:net3 ~count:(-5) ~to_remote:true
      ~sender_host:2 ()
  with
  | _ -> Alcotest.fail "a failed MoveTo was timed"
  | exception Failure e ->
      Alcotest.(check string) "status" "Rigs.move: bad-address" e

(* The rigs' command lines reject bad values as cmdliner usage errors
   (exit 124) instead of dying on an exception or reporting nonsense. *)
let test_rig_usage_errors () =
  List.iter
    (fun args ->
      Alcotest.(check int) (String.concat " " args) 124
        (Sys.command
           (Filename.quote_command "../bin/vsim.exe" args
              ~stdout:Filename.null ~stderr:Filename.null)))
    [
      [ "ipc"; "--trials"; "0" ];
      [ "seq"; "--pages"; "0" ];
      [ "ipc"; "--net"; "5" ];
      [ "ipc"; "--mhz"; "0" ];
      [ "page"; "--cache-blocks"; "4"; "--cache-policy"; "foo" ];
      [ "load"; "--unit"; "0" ];
      [ "move"; "--bytes=-5" ];
      [ "capacity"; "--clients"; "0" ];
    ]

let suite =
  [
    Alcotest.test_case "think distributions" `Quick test_think_distributions;
    Alcotest.test_case "recorder" `Quick test_recorder;
    Alcotest.test_case "testbed fs" `Quick test_testbed_fs;
    Alcotest.test_case "testbed hosts" `Quick test_testbed_hosts;
    Alcotest.test_case "timing harness" `Quick test_time_trials;
    Alcotest.test_case "failed move raises" `Quick test_move_fails_loudly;
    Alcotest.test_case "rig usage errors" `Quick test_rig_usage_errors;
  ]
