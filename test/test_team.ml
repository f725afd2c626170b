(* Worker-team file service: dispatch correctness, contention behaviour
   and trace-level determinism of the multi-process server. *)

module K = Vkernel.Kernel
module R = Vworkload.Rigs

module TB = Vworkload.Testbed

let connect k =
  match Vfs.Client.connect k () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Vfs.Client.error_to_string e)

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "client: %s" (Vfs.Client.error_to_string e)

let test_team_serves_clients () =
  (* Three clients against a 4-worker team: every page arrives intact and
     every request (3 opens + 24 reads) goes through the dispatcher. *)
  let tb = Util.testbed ~hosts:4 () in
  let fs = Vworkload.Testbed.make_test_fs tb ~files:[ ("f", 16 * 512) ] () in
  let config = { Vfs.Server.default_config with Vfs.Server.workers = 4 } in
  let server = Vfs.Server.start (TB.kernel tb 1) fs ~config () in
  let done_count = ref 0 in
  for h = 2 to 4 do
    let k = TB.kernel tb h in
    ignore
      (K.spawn k ~name:"client" (fun pid ->
           let mem = K.memory k pid in
           let conn = connect k in
           let fh = get (Vfs.Client.open_file conn "f") in
           for b = 0 to 7 do
             let n = get (Vfs.Client.read_page conn fh ~block:b ~buf:0 ()) in
             Alcotest.(check int) "page size" 512 n;
             let got = Vkernel.Mem.read mem ~pos:0 ~len:512 in
             let expect =
               Bytes.init 512 (fun i -> Util.pattern ((b * 512) + i))
             in
             if not (Bytes.equal got expect) then
               Alcotest.failf "host %d block %d corrupted through the team"
                 (K.host k) b
           done;
           incr done_count))
  done;
  Vworkload.Testbed.run tb;
  Alcotest.(check int) "all clients done" 3 !done_count;
  Alcotest.(check int) "team size" 4 (Vfs.Server.workers server);
  Alcotest.(check int) "server read count" 24 (Vfs.Server.pages_read server);
  Alcotest.(check int) "requests served" 27 (Vfs.Server.requests_served server);
  Alcotest.(check int) "every request dispatched" 27
    (Vfs.Server.dispatches server)

(* Run the contention rig with every trace event (timestamp + rendered
   event) captured into a buffer; returns the trace and the stats. *)
let traced_contention ~workers ~clients =
  let buf = Buffer.create (1 lsl 16) in
  Vsim.Engine.with_create_hook
    (Some
       (fun eng ->
         Vsim.Trace.attach eng (fun ts ev ->
             Buffer.add_string buf
               (Format.asprintf "%d %a@." ts Vsim.Event.pp ev))))
    (fun () ->
      let c = R.contention ~workers ~reads_per_client:10 ~clients () in
      (Buffer.contents buf, c))

let test_contention_deterministic () =
  (* Satellite: N clients against 1-worker and 4-worker servers must
     produce byte-identical traces across two runs, and the 4-worker mean
     latency must be strictly lower at N = 8. *)
  let run_twice w =
    let t1, c1 = traced_contention ~workers:w ~clients:8 in
    let t2, c2 = traced_contention ~workers:w ~clients:8 in
    Alcotest.(check bool)
      (Printf.sprintf "workers=%d traces byte-identical" w)
      true (String.equal t1 t2);
    Alcotest.(check bool)
      (Printf.sprintf "workers=%d trace non-empty" w)
      true
      (String.length t1 > 0);
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "workers=%d stats repeat" w)
      c1.R.c_mean_ms c2.R.c_mean_ms;
    c1
  in
  let c1 = run_twice 1 in
  let c4 = run_twice 4 in
  Alcotest.(check bool) "team mean latency strictly lower" true
    (c4.R.c_mean_ms < c1.R.c_mean_ms);
  Alcotest.(check int) "single worker never dispatches" 0 c1.R.c_dispatches;
  Alcotest.(check bool) "team dispatches" true (c4.R.c_dispatches > 0);
  Alcotest.(check int) "single worker never queues the disk" 0
    c1.R.c_disk_waits;
  Alcotest.(check bool) "team queues the disk" true (c4.R.c_disk_waits > 0)

let test_no_workers_rejected () =
  let tb = Util.testbed ~hosts:1 () in
  let fs = Vworkload.Testbed.make_test_fs tb ~files:[ ("f", 512) ] () in
  let config = { Vfs.Server.default_config with Vfs.Server.workers = 0 } in
  Alcotest.check_raises "workers = 0"
    (Invalid_argument "Server.start: workers must be >= 1") (fun () ->
      ignore (Vfs.Server.start (TB.kernel tb 1) fs ~config ()))

(* A transfer unit below one byte has no meaning: the server refuses it
   rather than pick a unit of its own. *)
let test_zero_transfer_unit_rejected () =
  let tb = Util.testbed ~hosts:1 () in
  let fs = Vworkload.Testbed.make_test_fs tb ~files:[ ("f", 512) ] () in
  let config =
    { Vfs.Server.default_config with Vfs.Server.transfer_unit = 0 }
  in
  Alcotest.check_raises "transfer_unit = 0"
    (Invalid_argument "Server.start: transfer_unit must be >= 1") (fun () ->
      ignore (Vfs.Server.start (TB.kernel tb 1) fs ~config ()))

let suite =
  [
    Alcotest.test_case "team serves clients" `Quick test_team_serves_clients;
    Alcotest.test_case "contention determinism + speedup" `Quick
      test_contention_deterministic;
    Alcotest.test_case "zero workers rejected" `Quick test_no_workers_rejected;
    Alcotest.test_case "zero transfer unit rejected" `Quick
      test_zero_transfer_unit_rejected;
  ]
