(* Baseline protocols: WFS-style page access and streaming transfer. *)

let rig ?(files = [ ("f", 8 * 512) ]) ?latency () =
  let tb = Util.testbed ~hosts:2 () in
  let fs = Vworkload.Testbed.make_test_fs tb ?latency ~files () in
  (tb, fs)

let test_wfs_read_write () =
  let tb, fs = rig () in
  let h1 = Vworkload.Testbed.host tb 1 and h2 = Vworkload.Testbed.host tb 2 in
  let (_ : Vbaseline.Wfs.server) =
    Vbaseline.Wfs.start_server tb.Vworkload.Testbed.eng
      ~nic:h1.Vworkload.Testbed.nic ~fs
  in
  let client =
    Vbaseline.Wfs.create_client tb.Vworkload.Testbed.eng
      ~nic:h2.Vworkload.Testbed.nic ~server:1 ()
  in
  let inum = Option.get (Vfs.Fs.lookup fs "f") in
  let ok = ref false in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn tb.Vworkload.Testbed.eng (fun () ->
        (match Vbaseline.Wfs.read_page client ~inum ~block:2 () with
        | Ok data ->
            let expect = Bytes.init 512 (fun i -> Util.pattern (1024 + i)) in
            Alcotest.(check bytes) "wfs page" expect data
        | Error e -> Alcotest.failf "wfs read: %s" e);
        (match
           Vbaseline.Wfs.write_page client ~inum ~block:0 (Bytes.make 512 'w')
         with
        | Ok () -> ()
        | Error e -> Alcotest.failf "wfs write: %s" e);
        (match Vbaseline.Wfs.read_page client ~inum ~block:0 () with
        | Ok data -> Alcotest.(check bytes) "wrote" (Bytes.make 512 'w') data
        | Error e -> Alcotest.failf "wfs reread: %s" e);
        ok := true)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check bool) "completed" true !ok

let test_wfs_two_packets () =
  (* The specialized protocol's defining property: one read = exactly two
     frames on the wire. *)
  let tb, fs = rig () in
  let h1 = Vworkload.Testbed.host tb 1 and h2 = Vworkload.Testbed.host tb 2 in
  let (_ : Vbaseline.Wfs.server) =
    Vbaseline.Wfs.start_server tb.Vworkload.Testbed.eng
      ~nic:h1.Vworkload.Testbed.nic ~fs
  in
  let client =
    Vbaseline.Wfs.create_client tb.Vworkload.Testbed.eng
      ~nic:h2.Vworkload.Testbed.nic ~server:1 ()
  in
  let inum = Option.get (Vfs.Fs.lookup fs "f") in
  let before = (Vnet.Medium.stats tb.Vworkload.Testbed.medium).Vnet.Medium.attempted in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn tb.Vworkload.Testbed.eng (fun () ->
        ignore (Vbaseline.Wfs.read_page client ~inum ~block:1 ()))
  in
  Vworkload.Testbed.run tb;
  let after = (Vnet.Medium.stats tb.Vworkload.Testbed.medium).Vnet.Medium.attempted in
  Alcotest.(check int) "two frames per read" 2 (after - before)

let test_wfs_retransmission () =
  let tb, fs = rig () in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop 0.3);
  let h1 = Vworkload.Testbed.host tb 1 and h2 = Vworkload.Testbed.host tb 2 in
  let (_ : Vbaseline.Wfs.server) =
    Vbaseline.Wfs.start_server tb.Vworkload.Testbed.eng
      ~nic:h1.Vworkload.Testbed.nic ~fs
  in
  let client =
    Vbaseline.Wfs.create_client tb.Vworkload.Testbed.eng
      ~nic:h2.Vworkload.Testbed.nic ~server:1 ~timeout:(Vsim.Time.ms 10) ()
  in
  let inum = Option.get (Vfs.Fs.lookup fs "f") in
  let got = ref 0 in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn tb.Vworkload.Testbed.eng (fun () ->
        for b = 0 to 7 do
          match Vbaseline.Wfs.read_page client ~inum ~block:b () with
          | Ok _ -> incr got
          | Error _ -> ()
        done)
  in
  Vworkload.Testbed.run tb;
  Alcotest.(check bool) "most pages eventually read" true (!got >= 6);
  Alcotest.(check bool) "retransmissions used" true
    (Vbaseline.Wfs.retransmissions client > 0)

let test_streaming_integrity () =
  let tb, fs = rig ~files:[ ("s", 40 * 512) ] () in
  let h1 = Vworkload.Testbed.host tb 1 and h2 = Vworkload.Testbed.host tb 2 in
  let (_ : Vbaseline.Streaming.server) =
    Vbaseline.Streaming.start_server tb.Vworkload.Testbed.eng
      ~nic:h1.Vworkload.Testbed.nic ~fs
  in
  let inum = Option.get (Vfs.Fs.lookup fs "s") in
  let stats = ref None in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn tb.Vworkload.Testbed.eng (fun () ->
        match
          Vbaseline.Streaming.stream_file tb.Vworkload.Testbed.eng
            ~nic:h2.Vworkload.Testbed.nic ~server:1 ~inum
        with
        | Ok s -> stats := Some s
        | Error e -> Alcotest.failf "stream: %s" e)
  in
  Vworkload.Testbed.run tb;
  match !stats with
  | None -> Alcotest.fail "no result"
  | Some s ->
      Alcotest.(check int) "all bytes" (40 * 512) s.Vbaseline.Streaming.bytes;
      Alcotest.(check int) "all pages" 40 s.Vbaseline.Streaming.pages

let test_streaming_vs_disk_latency () =
  (* With a 10 ms disk and no cache, streaming's per-page time is pinned
     near the disk latency: the paper's argument for why streaming buys
     little. *)
  let tb, fs =
    rig ~files:[ ("s", 20 * 512) ] ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 10)) ()
  in
  let inum = Option.get (Vfs.Fs.lookup fs "s") in
  Vfs.Fs.set_cache_enabled fs false;
  let h1 = Vworkload.Testbed.host tb 1 and h2 = Vworkload.Testbed.host tb 2 in
  let (_ : Vbaseline.Streaming.server) =
    Vbaseline.Streaming.start_server tb.Vworkload.Testbed.eng
      ~nic:h1.Vworkload.Testbed.nic ~fs
  in
  let per_page = ref 0 in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn tb.Vworkload.Testbed.eng (fun () ->
        match
          Vbaseline.Streaming.stream_file tb.Vworkload.Testbed.eng
            ~nic:h2.Vworkload.Testbed.nic ~server:1 ~inum
        with
        | Ok s -> per_page := s.Vbaseline.Streaming.per_page_ns
        | Error e -> Alcotest.failf "stream: %s" e)
  in
  Vworkload.Testbed.run tb;
  let ms = Vsim.Time.to_float_ms !per_page in
  if ms < 10.0 || ms > 13.0 then
    Alcotest.failf "streaming per-page %.2f ms, expected ~disk latency" ms

let suite =
  [
    Alcotest.test_case "wfs read/write" `Quick test_wfs_read_write;
    Alcotest.test_case "wfs is two packets" `Quick test_wfs_two_packets;
    Alcotest.test_case "wfs retransmission" `Quick test_wfs_retransmission;
    Alcotest.test_case "streaming integrity" `Quick test_streaming_integrity;
    Alcotest.test_case "streaming ~ disk latency" `Quick
      test_streaming_vs_disk_latency;
  ]
