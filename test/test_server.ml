(* End-to-end file service: diskless client against the V file server. *)

module K = Vkernel.Kernel

module TB = Vworkload.Testbed

(* Server on host 1 with the given files; returns (testbed, server). *)
let rig ?(files = [ ("prog", 65536); ("notes", 3000) ]) ?server_config
    ?latency () =
  let tb = Util.testbed ~hosts:2 () in
  let fs = Vworkload.Testbed.make_test_fs tb ?latency ~files () in
  let server =
    Vfs.Server.start (TB.kernel tb 1) fs ?config:server_config ()
  in
  (tb, fs, server)

let connect k =
  match Vfs.Client.connect k () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Vfs.Client.error_to_string e)

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "client: %s" (Vfs.Client.error_to_string e)

let test_open_read () =
  let tb, _, _ = rig () in
  let k2 = TB.kernel tb 2 in
  Util.run_as_process tb ~host:2 (fun pid ->
      let mem = K.memory k2 pid in
      let conn = connect k2 in
      let h = get (Vfs.Client.open_file conn "notes") in
      Alcotest.(check int) "size" 3000 (get (Vfs.Client.file_size conn h));
      let n = get (Vfs.Client.read_page conn h ~block:2 ~buf:4096 ()) in
      Alcotest.(check int) "middle page full" 512 n;
      let got = Vkernel.Mem.read mem ~pos:4096 ~len:512 in
      let expect = Bytes.init 512 (fun i -> Util.pattern (1024 + i)) in
      Alcotest.(check bytes) "page content" expect got;
      (* Last page is short. *)
      let n = get (Vfs.Client.read_page conn h ~block:5 ~buf:4096 ()) in
      Alcotest.(check int) "tail page short" (3000 - (5 * 512)) n;
      get (Vfs.Client.close_file conn h))

let test_write_then_read_back () =
  let tb, _, _ = rig () in
  let k2 = TB.kernel tb 2 in
  Util.run_as_process tb ~host:2 (fun pid ->
      let mem = K.memory k2 pid in
      let conn = connect k2 in
      let h = get (Vfs.Client.create_file conn "fresh") in
      Util.fill_pattern mem ~pos:0 ~len:512;
      let n = get (Vfs.Client.write_page conn h ~block:3 ~buf:0 ~count:512) in
      Alcotest.(check int) "written" 512 n;
      let n = get (Vfs.Client.read_page conn h ~block:3 ~buf:8192 ()) in
      Alcotest.(check int) "read back" 512 n;
      Util.check_pattern mem ~pos:8192 ~len:512
        ~name:"written data read back")

let test_basic_variants () =
  let tb, _, _ = rig () in
  let k2 = TB.kernel tb 2 in
  Util.run_as_process tb ~host:2 (fun pid ->
      let mem = K.memory k2 pid in
      let conn = connect k2 in
      let h = get (Vfs.Client.create_file conn "basic") in
      Util.fill_pattern mem ~pos:0 ~len:512;
      let n =
        get (Vfs.Client.write_page_basic conn h ~block:0 ~buf:0 ~count:512)
      in
      Alcotest.(check int) "basic write" 512 n;
      let n = get (Vfs.Client.read_page_basic conn h ~block:0 ~buf:8192 ()) in
      Alcotest.(check int) "basic read" 512 n;
      Util.check_pattern mem ~pos:8192 ~len:512 ~name:"basic roundtrip")

let test_load_program () =
  let tb, _, _ = rig () in
  let k2 = TB.kernel tb 2 in
  Util.run_as_process tb ~host:2 (fun pid ->
      let mem = K.memory k2 pid in
      let conn = connect k2 in
      let h = get (Vfs.Client.open_file conn "prog") in
      let n = get (Vfs.Client.load_program conn h ~buf:16384 ~max:65536) in
      Alcotest.(check int) "whole program" 65536 n;
      let got = Vkernel.Mem.read mem ~pos:16384 ~len:65536 in
      let expect = Bytes.init 65536 Util.pattern in
      Alcotest.(check bool) "program image exact" true (Bytes.equal got expect))

let test_errors () =
  let tb, _, _ = rig () in
  let k2 = TB.kernel tb 2 in
  Util.run_as_process tb ~host:2 (fun _ ->
      let conn = connect k2 in
      (match Vfs.Client.open_file conn "no-such-file" with
      | Error (Vfs.Client.Server Vfs.Protocol.Snot_found) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Vfs.Client.error_to_string e)
      | Ok _ -> Alcotest.fail "opened a ghost");
      match Vfs.Client.read_page conn 42 ~block:0 ~buf:0 () with
      | Error (Vfs.Client.Server Vfs.Protocol.Sbad_handle) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Vfs.Client.error_to_string e)
      | Ok _ -> Alcotest.fail "read with a bad handle")

(* A handle held across the delete dies with the file: a file created
   next takes the freed inode, and a write through the old handle must
   not land in it. *)
let test_delete () =
  let tb, fs, _ = rig () in
  let k2 = TB.kernel tb 2 in
  Util.run_as_process tb ~host:2 (fun _ ->
      let conn = connect k2 in
      let old = get (Vfs.Client.open_file conn "notes") in
      let inum = Vfs.Fs.lookup fs "notes" in
      get (Vfs.Client.delete_file conn "notes");
      (match Vfs.Client.open_file conn "notes" with
      | Error (Vfs.Client.Server Vfs.Protocol.Snot_found) -> ()
      | _ -> Alcotest.fail "deleted file still opens");
      let (_ : Vfs.Client.handle) = get (Vfs.Client.create_file conn "fresh") in
      Alcotest.(check (option int))
        "the new file reuses the inode" inum (Vfs.Fs.lookup fs "fresh");
      (match Vfs.Client.write_page conn old ~block:0 ~buf:0 ~count:512 with
      | Error (Vfs.Client.Server Vfs.Protocol.Sbad_handle) -> ()
      | Error e ->
          Alcotest.failf "wrong error: %s" (Vfs.Client.error_to_string e)
      | Ok _ -> Alcotest.fail "a write through the deleted file's handle");
      match Vfs.Fs.lookup fs "fresh" with
      | None -> Alcotest.fail "fresh file missing"
      | Some inum -> (
          match Vfs.Fs.size fs ~inum with
          | Ok n -> Alcotest.(check int) "the new file is still empty" 0 n
          | Error e -> Alcotest.failf "fs: %a" Vfs.Fs.pp_error e))

let test_sequential_read_with_latency () =
  (* Table 6-2 structure: server read-ahead; per-page elapsed ~ disk
     latency + protocol constant. *)
  let server_config =
    { Vfs.Server.default_config with Vfs.Server.read_ahead = true }
  in
  let tb, fs, _ =
    rig ~files:[ ("seq", 20 * 512) ] ~server_config
      ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 10)) ()
  in
  Vfs.Fs.evict_cache fs;
  let k2 = TB.kernel tb 2 in
  Util.run_as_process tb ~host:2 (fun _ ->
      let conn = connect k2 in
      let h = get (Vfs.Client.open_file conn "seq") in
      let t0 = Vsim.Engine.now (K.engine k2) in
      let total =
        get (Vfs.Client.read_sequential conn h ~buf:0 ~on_page:(fun _ _ -> ()))
      in
      Alcotest.(check int) "all bytes" (20 * 512) total;
      let per_page = (Vsim.Engine.now (K.engine k2) - t0) / 20 in
      let ms = Vsim.Time.to_float_ms per_page in
      (* ~ disk latency + small constant: between 10 and 14 ms. *)
      if ms < 10.0 || ms > 14.0 then
        Alcotest.failf "per-page %.2f ms out of band" ms)

let test_partial_page_count () =
  (* A read with count < block size returns exactly count bytes, from the
     right offset. *)
  let tb, _, _ = rig () in
  let k2 = TB.kernel tb 2 in
  Util.run_as_process tb ~host:2 (fun pid ->
      let mem = K.memory k2 pid in
      let conn = connect k2 in
      let h = get (Vfs.Client.open_file conn "notes") in
      let n = get (Vfs.Client.read_page conn h ~block:1 ~buf:0 ~count:100 ()) in
      Alcotest.(check int) "partial count honoured" 100 n;
      let got = Vkernel.Mem.read mem ~pos:0 ~len:100 in
      let expect = Bytes.init 100 (fun i -> Util.pattern (512 + i)) in
      Alcotest.(check bytes) "partial content" expect got)

let test_exec_scan () =
  (* Remote execution returns the same checksum as fetching the pages and
     scanning locally. *)
  let tb, _, srv = rig ~files:[ ("scan", 32 * 512) ] () in
  let k2 = TB.kernel tb 2 in
  Util.run_as_process tb ~host:2 (fun pid ->
      let mem = K.memory k2 pid in
      let conn = connect k2 in
      let h = get (Vfs.Client.open_file conn "scan") in
      let remote_sum = get (Vfs.Client.exec_scan conn h ~block:0 ~count:32) in
      (* Local scan over the same pages. *)
      let local_sum = ref 0 in
      for b = 0 to 31 do
        let n = get (Vfs.Client.read_page conn h ~block:b ~buf:0 ()) in
        let page = Vkernel.Mem.read mem ~pos:0 ~len:n in
        Bytes.iter
          (fun c -> local_sum := (!local_sum + Char.code c) land 0xFFFF_FFFF)
          page
      done;
      Alcotest.(check int) "checksums agree" !local_sum remote_sum);
  Alcotest.(check int) "one exec served" 1 (Vfs.Server.execs_served srv)

let test_exec_cheaper_on_the_wire () =
  (* The exec path generates 2 packets regardless of file size; the fetch
     path generates 2 per page. *)
  let tb, _, _ = rig ~files:[ ("scan", 32 * 512) ] () in
  let k2 = TB.kernel tb 2 in
  let medium = tb.Vworkload.Testbed.medium in
  let exec_pkts = ref 0 and fetch_pkts = ref 0 in
  Util.run_as_process tb ~host:2 (fun _ ->
      let conn = connect k2 in
      let h = get (Vfs.Client.open_file conn "scan") in
      let before = (Vnet.Medium.stats medium).Vnet.Medium.attempted in
      ignore (get (Vfs.Client.exec_scan conn h ~block:0 ~count:32));
      let mid = (Vnet.Medium.stats medium).Vnet.Medium.attempted in
      for b = 0 to 31 do
        ignore (get (Vfs.Client.read_page conn h ~block:b ~buf:0 ()))
      done;
      let after = (Vnet.Medium.stats medium).Vnet.Medium.attempted in
      exec_pkts := mid - before;
      fetch_pkts := after - mid);
  Alcotest.(check int) "exec is one exchange" 2 !exec_pkts;
  Alcotest.(check int) "fetch is 2 packets/page" 64 !fetch_pkts

let test_read_ahead_sequential_only () =
  (* Regression: read-ahead used to prefetch after *every* read, paying a
     wasted disk access per request under random access.  Count raw disk
     reads with read-ahead on and off over the same block pattern: random
     access must cost exactly the same, sequential access exactly one
     more (the one-block prefetch that runs past the last read). *)
  let disk_reads ~read_ahead pattern =
    let server_config =
      { Vfs.Server.default_config with Vfs.Server.read_ahead }
    in
    let tb, fs, _ =
      rig ~files:[ ("ra", 16 * 512) ] ~server_config
        ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 5)) ()
    in
    Vfs.Fs.evict_cache fs;
    let k2 = TB.kernel tb 2 in
    let dsk = Vfs.Fs.disk fs in
    let count = ref 0 in
    Util.run_as_process tb ~host:2 (fun _ ->
        let conn = connect k2 in
        let h = get (Vfs.Client.open_file conn "ra") in
        let before = Vfs.Disk.reads dsk in
        List.iter
          (fun b ->
            ignore (get (Vfs.Client.read_page conn h ~block:b ~buf:0 ())))
          pattern;
        count := Vfs.Disk.reads dsk - before);
    !count
  in
  (* No element is the successor of the one before it. *)
  let random = [ 9; 2; 11; 4; 13; 6; 1; 8 ] in
  Alcotest.(check int)
    "random access prefetches nothing"
    (disk_reads ~read_ahead:false random)
    (disk_reads ~read_ahead:true random);
  let sequential = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check int)
    "sequential access still prefetches"
    (disk_reads ~read_ahead:false sequential + 1)
    (disk_reads ~read_ahead:true sequential)

let test_handle_reclaim () =
  (* max_open = 4 gives three usable slots (handle 0 is never issued). *)
  let server_config =
    { Vfs.Server.default_config with Vfs.Server.max_open = 4 }
  in
  let tb, _, srv =
    rig ~files:[ ("a", 1024); ("b", 1024); ("c", 1024) ] ~server_config ()
  in
  let k1 = TB.kernel tb 1 in
  let k2 = TB.kernel tb 2 in
  (* A local client fills the whole table and never closes. *)
  let holder =
    K.spawn k1 ~name:"holder" (fun _ ->
        let conn = connect k1 in
        ignore (get (Vfs.Client.open_file conn "a"));
        ignore (get (Vfs.Client.open_file conn "b"));
        ignore (get (Vfs.Client.open_file conn "c")))
  in
  Vworkload.Testbed.run tb;
  (* While the holder lives its handles are untouchable: the table is
     full and a new open is refused. *)
  Util.run_as_process tb ~host:2 (fun _ ->
      let conn = connect k2 in
      match Vfs.Client.open_file conn "a" with
      | Error (Vfs.Client.Server Vfs.Protocol.Sno_space) -> ()
      | Error e ->
          Alcotest.failf "wrong error: %s" (Vfs.Client.error_to_string e)
      | Ok _ -> Alcotest.fail "open succeeded on a full table");
  Alcotest.(check int) "nothing reclaimed while the owner lives" 0
    (Vfs.Server.handles_reclaimed srv);
  (* Once the owner is destroyed, open pressure reclaims its slots. *)
  K.destroy k1 holder;
  Util.run_as_process tb ~host:2 (fun _ ->
      let conn = connect k2 in
      let h = get (Vfs.Client.open_file conn "b") in
      let n = get (Vfs.Client.read_page conn h ~block:0 ~buf:0 ()) in
      Alcotest.(check int) "read through the reclaimed slot" 512 n);
  Alcotest.(check int) "one slot reclaimed" 1
    (Vfs.Server.handles_reclaimed srv)

let test_multi_client_counts () =
  let tb = Util.testbed ~hosts:4 () in
  let fs = Vworkload.Testbed.make_test_fs tb ~files:[ ("f", 4096) ] () in
  let server = Vfs.Server.start (TB.kernel tb 1) fs () in
  let done_count = ref 0 in
  for h = 2 to 4 do
    let k = TB.kernel tb h in
    ignore
      (K.spawn k ~name:"client" (fun _ ->
           let conn = connect k in
           let fh = get (Vfs.Client.open_file conn "f") in
           for b = 0 to 7 do
             ignore (get (Vfs.Client.read_page conn fh ~block:b ~buf:0 ()))
           done;
           incr done_count))
  done;
  Vworkload.Testbed.run tb;
  Alcotest.(check int) "all clients done" 3 !done_count;
  Alcotest.(check int) "server read count" 24 (Vfs.Server.pages_read server)

let suite =
  [
    Alcotest.test_case "open + read" `Quick test_open_read;
    Alcotest.test_case "write then read back" `Quick test_write_then_read_back;
    Alcotest.test_case "basic (MoveTo/MoveFrom) variants" `Quick
      test_basic_variants;
    Alcotest.test_case "load program" `Quick test_load_program;
    Alcotest.test_case "error replies" `Quick test_errors;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "sequential read + disk latency" `Quick
      test_sequential_read_with_latency;
    Alcotest.test_case "partial page count" `Quick test_partial_page_count;
    Alcotest.test_case "exec scan" `Quick test_exec_scan;
    Alcotest.test_case "exec wire cost" `Quick test_exec_cheaper_on_the_wire;
    Alcotest.test_case "read-ahead only when sequential" `Quick
      test_read_ahead_sequential_only;
    Alcotest.test_case "handle reclaim under open pressure" `Quick
      test_handle_reclaim;
    Alcotest.test_case "multi-client" `Quick test_multi_client_counts;
  ]
