(* The boot-storm rig: multicast page distribution to diskless clients
   across the gateway, with NACK-driven repair rounds. *)

module Boot = Vworkload.Boot

let small_config = { Boot.default_config with Boot.pages = 32 }

let digest (r : Boot.report) =
  Printf.sprintf "%b/%d/%d/%d/%d/%d/%d/%d" r.Boot.completed r.Boot.rounds
    r.Boot.elapsed_ns r.Boot.server_cpu_ns r.Boot.wire_bytes r.Boot.events
    r.Boot.resent_pages r.Boot.statuses

let test_boot_completes () =
  let r =
    Boot.run ~config:small_config ~segments:(Boot.default_segments ~clients:8)
      ()
  in
  Alcotest.(check bool) "completed" true r.Boot.completed;
  Alcotest.(check int) "clients" 8 r.Boot.clients;
  Alcotest.(check int) "every JOIN heard" 8 r.Boot.joins;
  Array.iteri
    (fun i got ->
      Alcotest.(check int) (Printf.sprintf "client %d holds the image" i) 32
        got)
    r.Boot.per_client_pages;
  (* The gateway re-broadcast pages onto the far segment: the far clients
     booted without a single unicast page transfer. *)
  Alcotest.(check bool) "pages crossed the gateway" true
    (r.Boot.gateway.Vnet.Gateway.rebroadcast > 0)

let test_boot_deterministic () =
  let run () =
    Boot.run ~config:small_config ~segments:(Boot.default_segments ~clients:8)
      ()
  in
  Alcotest.(check string) "two storms, one digest" (digest (run ()))
    (digest (run ()))

(* Multicast economics: the wire carries one copy of the image per
   segment (plus repairs), so doubling the clients must not come close to
   doubling the bytes on the wire. *)
let test_multicast_sublinear () =
  let wire clients =
    let r =
      Boot.run ~config:small_config ~segments:(Boot.default_segments ~clients)
        ()
    in
    Alcotest.(check bool) "completed" true r.Boot.completed;
    r.Boot.wire_bytes
  in
  let w8 = wire 8 and w16 = wire 16 in
  Alcotest.(check bool)
    (Printf.sprintf "16 clients cost < 1.5x of 8 (%d vs %d bytes)" w16 w8)
    true
    (float_of_int w16 < 1.5 *. float_of_int w8)

let test_cost_per_1000 () =
  let r =
    Boot.run ~config:small_config ~segments:(Boot.default_segments ~clients:8)
      ()
  in
  let cpu_s, bytes = Boot.cost_per_1000_clients r in
  Alcotest.(check (float 1e-9)) "cpu cell"
    (float_of_int r.Boot.server_cpu_ns /. 1e9 *. 125.0)
    cpu_s;
  Alcotest.(check (float 1e-6)) "bytes cell"
    (float_of_int r.Boot.wire_bytes *. 125.0)
    bytes

(* A storm that cannot finish must quiesce with [completed = false], not
   hang.  From its third frame on, the far segment loses everything, so
   the far client hears neither the rest of the image nor any END, and
   after one round that teaches the server nothing it gives up. *)
let test_stall_quiesces () =
  let config = { Boot.default_config with Boot.max_rounds = 1 } in
  let segments =
    [
      { Vworkload.Topology.medium_config = Vnet.Medium.config_10mb;
        seg_hosts = 1 };
      { Vworkload.Topology.medium_config = Vnet.Medium.config_3mb;
        seg_hosts = 1 };
    ]
  in
  let far = Vnet.Fault.drop_nth (List.init 1000 (fun i -> i + 3)) in
  let r = Boot.run ~config ~faults:[ Vnet.Fault.none; far ] ~segments () in
  Alcotest.(check bool) "not complete" false r.Boot.completed;
  Alcotest.(check bool) "quiesced within budget" true
    (r.Boot.events < Boot.default_max_events);
  Alcotest.(check bool) "the far client is missing pages" true
    (Array.exists (fun got -> got < 128) r.Boot.per_client_pages)

(* Corruption on both segments: private corrupted copies reach the boot
   protocol (clients and server ignore them) and the gateway (which
   refuses them at the CRC), and the NACK rounds still boot everyone. *)
let test_storm_under_corruption () =
  let corrupt = Vnet.Fault.corrupt 0.02 in
  let r =
    Boot.run ~config:small_config ~faults:[ corrupt; corrupt ]
      ~segments:(Boot.default_segments ~clients:16) ()
  in
  Alcotest.(check bool) "completed" true r.Boot.completed;
  Alcotest.(check int) "every DONE acknowledged" 16 r.Boot.acked;
  Array.iteri
    (fun i got ->
      Alcotest.(check int) (Printf.sprintf "client %d holds the image" i) 32
        got)
    r.Boot.per_client_pages;
  Alcotest.(check bool) "the gateway refused corrupted frames" true
    (r.Boot.gateway.Vnet.Gateway.crc_drops > 0);
  Alcotest.(check bool) "corrupted pages were repaired" true
    (r.Boot.resent_pages > 0)

(* [Boot.run] rejects a bad size before it creates an engine, with the
   message [Boot.validate] gives. *)
let rejects ~pages ~page_bytes msg () =
  let config = { Boot.default_config with Boot.pages; page_bytes } in
  let segments = Boot.default_segments ~clients:4 in
  Alcotest.(check (result unit string)) "validate" (Error msg)
    (Boot.validate config ~segments);
  Alcotest.check_raises "run" (Invalid_argument ("Boot.run: " ^ msg))
    (fun () -> ignore (Boot.run ~config ~segments ()))

let test_largest_page_fits () =
  (* 6 header bytes + 1530 fill the 1536-byte frame exactly. *)
  let config = { small_config with Boot.page_bytes = 1530 } in
  let r = Boot.run ~config ~segments:(Boot.default_segments ~clients:4) () in
  Alcotest.(check bool) "completed" true r.Boot.completed

(* The boot invariant under loss and a gateway outage: a storm completes
   exactly when every client holds the image and the server has
   acknowledged every client's DONE, it never acknowledges a client
   without the image, and it never ends with every client booted but one
   unacknowledged.  A clean wire needs one paced round: nothing re-sent,
   nothing dropped at the gateway. *)
let test_invariant_sweep () =
  let drop p = [ Vnet.Fault.drop p; Vnet.Fault.drop p ] in
  (* Segment 0 carries the n JOINs, then the pages: crash the gateway a
     quarter of the way into round 1 and bring it back 50 ms later. *)
  let outage ~clients ~pages =
    [
      Vnet.Fault.with_host_events Vnet.Fault.none
        [ (clients + (pages / 4), Vnet.Fault.Restart 50_000_000) ];
    ]
  in
  let storm seed clients pages (what, faults) =
    let label =
      Printf.sprintf "seed %d, %d clients, %d pages, %s" seed clients pages
        what
    in
    let r =
      Boot.run ~seed:(Int64.of_int seed)
        ~config:{ Boot.default_config with Boot.pages }
        ~faults ~segments:(Boot.default_segments ~clients) ()
    in
    let booted =
      Array.fold_left
        (fun a got -> if got = pages then a + 1 else a)
        0 r.Boot.per_client_pages
    in
    let lost =
      r.Boot.gateway.Vnet.Gateway.down_drops
      + List.fold_left (fun a m -> a + m.Vnet.Medium.dropped) 0 r.Boot.media
    in
    let check what = Alcotest.(check bool) (label ^ ": " ^ what) in
    check "frames lost iff faulty" (faults <> []) (lost > 0);
    check "completed iff booted and acked"
      (booted = clients && r.Boot.acked = clients)
      r.Boot.completed;
    check "acked only the booted" true (r.Boot.acked <= booted);
    check "no unacked DONE" true (r.Boot.completed || booted < clients);
    if faults = [] then begin
      Alcotest.(check int) (label ^ ": rounds") 1 r.Boot.rounds;
      Alcotest.(check int) (label ^ ": resent") 0 r.Boot.resent_pages;
      Alcotest.(check int) (label ^ ": gateway drops") 0
        r.Boot.gateway.Vnet.Gateway.queue_drops
    end
  in
  List.iter
    (fun seed ->
      List.iter
        (fun clients ->
          List.iter
            (fun pages ->
              List.iter (storm seed clients pages)
                [
                  ("clean", []);
                  ("drop 0.01", drop 0.01);
                  ("drop 0.05", drop 0.05);
                  ("gateway outage", outage ~clients ~pages);
                ])
            [ 32; 128 ])
        [ 16; 64 ])
    [ 1; 2; 3 ]

let suite =
  [
    Alcotest.test_case "8 clients boot over two segments" `Quick
      test_boot_completes;
    Alcotest.test_case "boot storm is deterministic" `Quick
      test_boot_deterministic;
    Alcotest.test_case "wire cost is sublinear in clients" `Quick
      test_multicast_sublinear;
    Alcotest.test_case "cost_per_1000_clients cells" `Quick test_cost_per_1000;
    Alcotest.test_case "stalled storm quiesces incomplete" `Quick
      test_stall_quiesces;
    Alcotest.test_case "storm under corruption on both segments" `Quick
      test_storm_under_corruption;
    Alcotest.test_case "zero pages rejected" `Quick
      (rejects ~pages:0 ~page_bytes:512 "need 1..65535 pages, not 0");
    Alcotest.test_case "empty page rejected" `Quick
      (rejects ~pages:32 ~page_bytes:0 "need pages of at least 1 byte, not 0");
    Alcotest.test_case "page over the frame limit rejected" `Quick
      (rejects ~pages:32 ~page_bytes:1531
         "a 1531-byte page makes a 1537-byte frame, over the 1536-byte \
          maximum");
    Alcotest.test_case "largest page that fits boots" `Quick
      test_largest_page_fits;
    Alcotest.test_case "invariant under loss and gateway outage" `Quick
      test_invariant_sweep;
  ]
