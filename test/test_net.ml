(* Tests for the Ethernet medium and NIC. *)

let cfg3 = Vnet.Medium.config_3mb

let setup ?(medium_config = cfg3) () =
  let eng = Vsim.Engine.create () in
  let medium = Vnet.Medium.create eng medium_config in
  (eng, medium)

let test_delivery_timing () =
  let eng, medium = setup () in
  let arrival = ref (-1) in
  Vnet.Medium.attach medium ~addr:2 ~rx:(fun _ ->
      arrival := Vsim.Engine.now eng);
  Vnet.Medium.attach medium ~addr:1 ~rx:ignore;
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:0 (Bytes.make 64 'x'));
  Vsim.Engine.run eng;
  (* 64 bytes at 2721 ns/byte + 30 us latency *)
  let expect = (64 * Vnet.Medium.byte_time_ns cfg3) + cfg3.Vnet.Medium.latency_ns in
  Alcotest.(check int) "arrival time" expect !arrival

let test_broadcast () =
  let eng, medium = setup () in
  let got = ref [] in
  for a = 1 to 3 do
    Vnet.Medium.attach medium ~addr:a ~rx:(fun _ -> got := a :: !got)
  done;
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:Vnet.Addr.broadcast ~ethertype:0
       (Bytes.make 10 'b'));
  Vsim.Engine.run eng;
  Alcotest.(check (list int)) "everyone but the sender" [ 2; 3 ]
    (List.sort compare !got)

let test_carrier_sense () =
  (* A transmission started while the medium is busy (outside the
     collision window) defers and goes out after the first completes. *)
  let eng, medium = setup () in
  let arrivals = ref [] in
  Vnet.Medium.attach medium ~addr:3 ~rx:(fun f ->
      arrivals := (f.Vnet.Frame.src, Vsim.Engine.now eng) :: !arrivals);
  Vnet.Medium.attach medium ~addr:1 ~rx:ignore;
  Vnet.Medium.attach medium ~addr:2 ~rx:ignore;
  let tx src payload =
    Vnet.Medium.transmit medium
      (Vnet.Frame.make ~src ~dst:3 ~ethertype:0 (Bytes.make payload 'x'))
  in
  tx 1 1000;
  (* Second transmit 1 ms in: medium still busy (1000 B = 2.72 ms). *)
  ignore (Vsim.Engine.after eng (Vsim.Time.ms 1) (fun () -> tx 2 100));
  Vsim.Engine.run eng;
  let bt = Vnet.Medium.byte_time_ns cfg3 and lat = cfg3.Vnet.Medium.latency_ns in
  let first_end = 1000 * bt in
  Alcotest.(check (list (pair int int)))
    "serialized on the wire"
    [ (1, first_end + lat); (2, first_end + (100 * bt) + lat) ]
    (List.rev !arrivals);
  let stats = Vnet.Medium.stats medium in
  Alcotest.(check int) "no collisions" 0 stats.Vnet.Medium.collisions

let test_collision_backoff () =
  (* Two stations transmitting at the same instant collide, then both
     frames eventually get through via backoff. *)
  let eng, medium = setup () in
  let got = ref 0 in
  Vnet.Medium.attach medium ~addr:3 ~rx:(fun _ -> incr got);
  Vnet.Medium.attach medium ~addr:1 ~rx:ignore;
  Vnet.Medium.attach medium ~addr:2 ~rx:ignore;
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:3 ~ethertype:0 (Bytes.make 100 'a'));
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:2 ~dst:3 ~ethertype:0 (Bytes.make 100 'b'));
  Vsim.Engine.run eng;
  let stats = Vnet.Medium.stats medium in
  Alcotest.(check int) "both delivered" 2 !got;
  Alcotest.(check bool) "collision happened" true
    (stats.Vnet.Medium.collisions >= 1)

let test_fault_drop () =
  let eng, medium = setup () in
  Vnet.Medium.set_fault medium (Vnet.Fault.drop 1.0);
  let got = ref 0 in
  Vnet.Medium.attach medium ~addr:2 ~rx:(fun _ -> incr got);
  Vnet.Medium.attach medium ~addr:1 ~rx:ignore;
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:0 (Bytes.make 10 'x'));
  Vsim.Engine.run eng;
  Alcotest.(check int) "nothing arrives" 0 !got;
  Alcotest.(check int) "counted" 1 (Vnet.Medium.stats medium).Vnet.Medium.dropped

let test_fault_corrupt_and_crc () =
  let eng, medium = setup () in
  Vnet.Medium.set_fault medium (Vnet.Fault.corrupt 1.0);
  let cpu = Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_8mhz ~name:"c" in
  let nic2 = Vnet.Nic.create eng ~cpu ~medium ~addr:2 in
  let got = ref 0 in
  Vnet.Nic.set_receiver nic2 ~ethertype:7 (fun _ -> incr got);
  Vnet.Medium.attach medium ~addr:1 ~rx:ignore;
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:7 (Bytes.make 10 'x'));
  Vsim.Engine.run eng;
  Alcotest.(check int) "handler never sees corrupt frame" 0 !got;
  Alcotest.(check int) "CRC drop counted" 1 (Vnet.Nic.crc_drops nic2);
  Alcotest.(check bool) "CPU still paid for the packet" true
    (Vhw.Cpu.busy_ns cpu > 0)

(* Corruption is per receiver: a broadcast under a partial corruption
   rate reaches some stations corrupted and the rest clean, each
   receiver's flag is its own (as many corrupted copies as the medium
   counted, none leaking to the stations after it), the transmitted
   frame is never marked, and clean receivers share it. *)
let test_fault_corrupt_isolated () =
  let eng = Vsim.Engine.create ~seed:7L () in
  let medium = Vnet.Medium.create eng cfg3 in
  Vnet.Medium.set_fault medium (Vnet.Fault.corrupt 0.4);
  let heard = ref [] in
  for a = 1 to 6 do
    Vnet.Medium.attach medium ~addr:a ~rx:(fun f -> heard := f :: !heard)
  done;
  let corrupt_then_clean = ref 0 in
  for i = 1 to 20 do
    heard := [];
    let before = (Vnet.Medium.stats medium).Vnet.Medium.corrupted in
    let sent =
      Vnet.Frame.make ~src:1 ~dst:Vnet.Addr.broadcast ~ethertype:0
        (Bytes.make 10 (Char.chr i))
    in
    Vnet.Medium.transmit medium sent;
    Vsim.Engine.run eng;
    let got = List.rev !heard in
    let bad = List.filter (fun f -> f.Vnet.Frame.corrupted) got in
    let label = Printf.sprintf "broadcast %d" i in
    Alcotest.(check int) (label ^ ": five receivers") 5 (List.length got);
    Alcotest.(check int) (label ^ ": corrupted copies as counted")
      ((Vnet.Medium.stats medium).Vnet.Medium.corrupted - before)
      (List.length bad);
    Alcotest.(check bool) (label ^ ": sent frame unmarked") false
      sent.Vnet.Frame.corrupted;
    List.iter
      (fun f ->
        Alcotest.(check bool) (label ^ ": same payload") true
          (f.Vnet.Frame.payload == sent.Vnet.Frame.payload);
        (* Frames are immutable: a clean delivery is the sent frame
           itself, a corrupted one a private copy. *)
        Alcotest.(check bool) (label ^ ": the sent frame iff clean")
          (not f.Vnet.Frame.corrupted) (f == sent))
      got;
    let rec after_bad = function
      | a :: (b :: _ as rest) ->
          if a.Vnet.Frame.corrupted && not b.Vnet.Frame.corrupted then
            incr corrupt_then_clean;
          after_bad rest
      | _ -> ()
    in
    after_bad got
  done;
  Alcotest.(check bool) "a clean copy followed a corrupted one" true
    (!corrupt_then_clean > 0)

let test_scripted_duplicate () =
  (* A duplicated frame reaches its receiver twice; the stats account the
     extra copy so delivery conservation still balances. *)
  let eng, medium = setup () in
  Vnet.Medium.set_fault medium
    (Vnet.Fault.script [ (1, Vnet.Fault.Duplicate) ]);
  let got = ref 0 in
  Vnet.Medium.attach medium ~addr:2 ~rx:(fun _ -> incr got);
  Vnet.Medium.attach medium ~addr:1 ~rx:ignore;
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:0 (Bytes.make 10 'x'));
  Vsim.Engine.run eng;
  let s = Vnet.Medium.stats medium in
  Alcotest.(check int) "both copies arrive" 2 !got;
  Alcotest.(check int) "duplicate counted" 1 s.Vnet.Medium.duplicated;
  Alcotest.(check int) "conservation" 0
    (s.Vnet.Medium.targeted + s.Vnet.Medium.duplicated
    - s.Vnet.Medium.delivered - s.Vnet.Medium.dropped)

let test_scripted_reorder () =
  (* Reorder holds a frame until the next completed transmission, so two
     back-to-back frames swap arrival order. *)
  let eng, medium = setup () in
  Vnet.Medium.set_fault medium (Vnet.Fault.script [ (1, Vnet.Fault.Reorder) ]);
  let order = ref [] in
  Vnet.Medium.attach medium ~addr:2 ~rx:(fun f ->
      order := Bytes.get f.Vnet.Frame.payload 0 :: !order);
  Vnet.Medium.attach medium ~addr:1 ~rx:ignore;
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:0 (Bytes.make 10 'a'));
  (* Past the first frame's wire time, so the two never collide. *)
  ignore
    (Vsim.Engine.after eng (Vsim.Time.us 60) (fun () ->
         Vnet.Medium.transmit medium
           (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:0 (Bytes.make 10 'b'))));
  Vsim.Engine.run eng;
  let s = Vnet.Medium.stats medium in
  Alcotest.(check (list char)) "swapped" [ 'b'; 'a' ] (List.rev !order);
  Alcotest.(check int) "nothing lost" 2 s.Vnet.Medium.delivered;
  Alcotest.(check int) "conservation" 0
    (s.Vnet.Medium.targeted + s.Vnet.Medium.duplicated
    - s.Vnet.Medium.delivered - s.Vnet.Medium.dropped)

(* Receivers hear a broadcast in one fixed order, which every traced run
   and checker schedule depends on: the order of the port table's walk,
   which is neither address nor attach order, with the taps after the
   ports.  It must survive a station attached between frames, a frame
   bridged in from another segment and a frame a tap sends itself. *)
let test_broadcast_order () =
  let eng, medium = setup () in
  let heard = ref [] in
  let station attach a =
    attach medium ~addr:a ~rx:(fun _ -> heard := a :: !heard)
  in
  List.iter (station Vnet.Medium.attach) [ 7; 2; 30; 1; 19; 4; 12 ];
  List.iter (station Vnet.Medium.attach_tap) [ 200; 60; 90 ];
  let order ?bridged ~src ~dst () =
    heard := [];
    Vnet.Medium.transmit ?bridged medium
      (Vnet.Frame.make ~src ~dst ~ethertype:0 (Bytes.make 10 'b'));
    Vsim.Engine.run eng;
    List.rev !heard
  in
  let bc = Vnet.Addr.broadcast in
  let check name expect got = Alcotest.(check (list int)) name expect got in
  check "broadcast" [ 19; 1; 4; 12; 7; 30; 60; 200; 90 ]
    (order ~src:2 ~dst:bc ());
  station Vnet.Medium.attach 25;
  check "after an attach" [ 1; 25; 4; 12; 7; 30; 2; 60; 200; 90 ]
    (order ~src:19 ~dst:bc ());
  check "bridged in" [ 19; 1; 25; 4; 12; 7; 30; 2; 60; 200; 90 ]
    (order ~bridged:true ~src:99 ~dst:bc ());
  check "from a tap" [ 19; 1; 25; 4; 12; 7; 30; 2; 200; 90 ]
    (order ~bridged:true ~src:60 ~dst:bc ());
  check "unicast" [ 30; 60; 200; 90 ] (order ~src:7 ~dst:30 ());
  (* The medium counts each frame's receivers without walking them. *)
  Alcotest.(check int) "targeted" (9 + 10 + 11 + 10 + 4)
    (Vnet.Medium.stats medium).Vnet.Medium.targeted;
  Alcotest.check_raises "a tap's address is taken"
    (Invalid_argument "Medium.attach: address 60 already attached")
    (fun () -> station Vnet.Medium.attach 60)

(* The same order over random stations, attached in random order between
   frames, against a model: the reverse of a [Hashtbl]'s walk of the
   ports (an [Itbl] walks in [Hashtbl] order), then its walk of the taps,
   without the source; a unicast reaches its destination if that is an
   attached port (a port sending to itself included), then the taps but
   its source, so a unicast to an unattached address reaches only the
   taps and one to a tap's address reaches that tap among them.  A
   receiver a fault drops still has its place in the order, through its
   Packet_drop event, a scripted duplicate delivers the whole order
   twice, and a scripted delay or reorder delivers it once, later. *)
type order_mode = Clean | Lossy | Scripted

let delivery_matches_model (seed, mode) =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let eng, medium = setup () in
  let heard = ref [] in
  Vsim.Engine.add_tracer eng (fun _ ev ->
      match ev with
      | Vsim.Event.Packet_drop { host; _ } -> heard := host :: !heard
      | _ -> ());
  (* Distinct station addresses, the rest of 0..254 left unattached. *)
  let pool = Array.init 255 Fun.id in
  for i = 254 downto 1 do
    let j = int (i + 1) in
    let a = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- a
  done;
  let nports = 1 + int 40 and ntaps = int 5 in
  let ports = Hashtbl.create 16 and taps = Hashtbl.create 4 in
  let attached tbl = Hashtbl.fold (fun a () acc -> a :: acc) tbl [] in
  let attach i =
    let a = pool.(i) in
    let rx _ = heard := a :: !heard in
    if i < nports then begin
      Vnet.Medium.attach medium ~addr:a ~rx;
      Hashtbl.replace ports a ()
    end
    else begin
      Vnet.Medium.attach_tap medium ~addr:a ~rx;
      Hashtbl.replace taps a ()
    end
  in
  let pick l = List.nth l (int (List.length l)) in
  let sends = 12 in
  (match mode with
  | Clean -> ()
  | Lossy ->
      Vnet.Medium.set_fault medium
        { Vnet.Fault.none with drop_prob = 0.2; corrupt_prob = 0.2 }
  | Scripted ->
      Vnet.Medium.set_fault medium
        (Vnet.Fault.script
           (List.init sends (fun k ->
                ( k + 1,
                  match k mod 4 with
                  | 0 -> Vnet.Fault.Drop
                  | 1 -> Vnet.Fault.Duplicate
                  | 2 -> Vnet.Fault.Delay 50_000
                  | _ -> Vnet.Fault.Reorder )))));
  let expected_targets = ref 0 in
  let next = ref 0 and frames = ref 0 in
  while !frames < sends do
    if !next < nports + ntaps && (!next = 0 || int 3 = 0) then begin
      attach !next;
      incr next
    end
    else begin
      let ports_now = attached ports and taps_now = List.rev (attached taps) in
      let bc = Vnet.Addr.broadcast in
      let src, dst, bridged =
        match int 8 with
        | 0 when taps_now <> [] -> (pick taps_now, bc, true)
        | 1 -> (pool.(254 - int 100), bc, true)
        | 2 when taps_now <> [] -> (pick taps_now, pick ports_now, true)
        | 3 -> (pick ports_now, pick ports_now, false)
        | 4 -> (pick ports_now, pool.(254 - int 100), false)
        | 5 when taps_now <> [] -> (pick ports_now, pick taps_now, false)
        | 6 ->
            let a = pick ports_now in
            (a, a, false)
        | _ -> (pick ports_now, bc, false)
      in
      let but_src = List.filter (fun a -> a <> src) in
      let model =
        if Vnet.Addr.is_broadcast dst then but_src (ports_now @ taps_now)
        else if Hashtbl.mem ports dst then dst :: but_src taps_now
        else but_src taps_now
      in
      heard := [];
      Vnet.Medium.transmit ~bridged medium
        (Vnet.Frame.make ~src ~dst ~ethertype:0 (Bytes.make 10 'b'));
      Vsim.Engine.run eng;
      incr frames;
      expected_targets := !expected_targets + List.length model;
      let expect =
        if mode = Scripted && !frames mod 4 = 2 then model @ model else model
      in
      if List.rev !heard <> expect then
        QCheck.Test.fail_reportf "frame %d from %d to %d: heard [%s], expected [%s]"
          !frames src dst
          (String.concat "; " (List.map string_of_int (List.rev !heard)))
          (String.concat "; " (List.map string_of_int expect))
    end
  done;
  let s = Vnet.Medium.stats medium in
  s.Vnet.Medium.targeted = !expected_targets
  && s.Vnet.Medium.delivered + s.Vnet.Medium.dropped
     = s.Vnet.Medium.targeted + s.Vnet.Medium.duplicated

let test_broadcast_order_model =
  Util.qtest ~count:300 "broadcast order matches a model"
    QCheck.(pair int (make Gen.(oneofl [ Clean; Lossy; Scripted ])))
    delivery_matches_model

let test_broadcast_drop_per_receiver () =
  (* A scripted drop of a broadcast frame loses one copy per receiver:
     with three stations attached, two intended deliveries are lost and
     the conservation identity still holds. *)
  let eng, medium = setup () in
  Vnet.Medium.set_fault medium (Vnet.Fault.script [ (1, Vnet.Fault.Drop) ]);
  let got = ref 0 in
  for a = 1 to 3 do
    Vnet.Medium.attach medium ~addr:a ~rx:(fun _ -> incr got)
  done;
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:Vnet.Addr.broadcast ~ethertype:0
       (Bytes.make 10 'b'));
  Vsim.Engine.run eng;
  let s = Vnet.Medium.stats medium in
  Alcotest.(check int) "nobody hears it" 0 !got;
  Alcotest.(check int) "two intended receivers" 2 s.Vnet.Medium.targeted;
  Alcotest.(check int) "both copies counted lost" 2 s.Vnet.Medium.dropped;
  Alcotest.(check int) "conservation" 0
    (s.Vnet.Medium.targeted + s.Vnet.Medium.duplicated
    - s.Vnet.Medium.delivered - s.Vnet.Medium.dropped)

let test_drop_events_name_receiver () =
  (* Packet_drop is attributed to the receiver that missed the frame for
     both scripted and probabilistic faults; the reasons distinguish
     them. *)
  let collect () =
    let eng, medium = setup () in
    let drops = ref [] in
    Vsim.Engine.add_tracer eng (fun _ ev ->
        match ev with
        | Vsim.Event.Packet_drop { host; reason; _ } ->
            drops := (host, reason) :: !drops
        | _ -> ());
    Vnet.Medium.attach medium ~addr:2 ~rx:ignore;
    Vnet.Medium.attach medium ~addr:1 ~rx:ignore;
    (eng, medium, drops)
  in
  let eng, medium, drops = collect () in
  Vnet.Medium.set_fault medium (Vnet.Fault.script [ (1, Vnet.Fault.Drop) ]);
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:0 (Bytes.make 10 'x'));
  Vsim.Engine.run eng;
  Alcotest.(check (list (pair int string)))
    "scripted drop names the receiver"
    [ (2, "fault-scripted") ]
    !drops;
  let eng, medium, drops = collect () in
  Vnet.Medium.set_fault medium (Vnet.Fault.drop 1.0);
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:0 (Bytes.make 10 'x'));
  Vsim.Engine.run eng;
  Alcotest.(check (list (pair int string)))
    "probabilistic drop names the receiver"
    [ (2, "fault") ]
    !drops

let test_nic_costs () =
  (* The NIC charges setup + per-byte copy on transmit. *)
  let eng, medium = setup () in
  let m = Vhw.Cost_model.sun_8mhz in
  let cpu1 = Vhw.Cpu.create eng ~model:m ~name:"c1" in
  let nic1 = Vnet.Nic.create eng ~cpu:cpu1 ~medium ~addr:1 in
  Vnet.Medium.attach medium ~addr:2 ~rx:ignore;
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vnet.Nic.send nic1 ~dst:2 ~ethertype:0 (Bytes.make 100 'x'))
  in
  Vsim.Engine.run eng;
  Alcotest.(check int) "tx cost"
    (m.Vhw.Cost_model.pkt_send_setup_ns
    + (100 * m.Vhw.Cost_model.nic_copy_ns_per_byte))
    (Vhw.Cpu.busy_ns cpu1)

let test_nic_tx_buffer_serializes () =
  (* Back-to-back sends: copy of packet k+1 waits for packet k to leave
     the wire, so the inter-arrival gap is copy + wire time. *)
  let eng, medium = setup () in
  let m = Vhw.Cost_model.sun_10mhz in
  let cpu1 = Vhw.Cpu.create eng ~model:m ~name:"c1" in
  let nic1 = Vnet.Nic.create eng ~cpu:cpu1 ~medium ~addr:1 in
  let arrivals = ref [] in
  Vnet.Medium.attach medium ~addr:2 ~rx:(fun _ ->
      arrivals := Vsim.Engine.now eng :: !arrivals);
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        for _ = 1 to 3 do
          Vnet.Nic.send nic1 ~dst:2 ~ethertype:0 (Bytes.make 1000 'x')
        done)
  in
  Vsim.Engine.run eng;
  match List.rev !arrivals with
  | [ a; b; c ] ->
      let wire = 1000 * Vnet.Medium.byte_time_ns cfg3 in
      let copy =
        m.Vhw.Cost_model.pkt_send_setup_ns
        + (1000 * m.Vhw.Cost_model.nic_copy_ns_per_byte)
      in
      Alcotest.(check int) "gap 1" (wire + copy) (b - a);
      Alcotest.(check int) "gap 2" (wire + copy) (c - b)
  | l -> Alcotest.failf "expected 3 arrivals, got %d" (List.length l)

let test_utilization_metering () =
  let eng, medium = setup () in
  Vnet.Medium.attach medium ~addr:1 ~rx:ignore;
  Vnet.Medium.attach medium ~addr:2 ~rx:ignore;
  let mark = Vnet.Medium.mark medium in
  Vnet.Medium.transmit medium
    (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:0 (Bytes.make 500 'x'));
  ignore (Vsim.Engine.after eng (Vsim.Time.ms 10) ignore);
  Vsim.Engine.run eng;
  let wire = float_of_int (500 * Vnet.Medium.byte_time_ns cfg3) in
  let expect = wire /. 10e6 in
  let got = Vnet.Medium.utilization_since medium mark in
  if Float.abs (got -. expect) > 0.02 then
    Alcotest.failf "utilization %.4f vs %.4f" got expect;
  Alcotest.(check int) "bits" (500 * 8) (Vnet.Medium.bits_since medium mark)

let test_oversize_rejected () =
  let _, medium = setup () in
  Vnet.Medium.attach medium ~addr:1 ~rx:ignore;
  try
    Vnet.Medium.transmit medium
      (Vnet.Frame.make ~src:1 ~dst:2 ~ethertype:0 (Bytes.make 4096 'x'));
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_10mb_config () =
  Alcotest.(check int) "10 Mb byte time" 800
    (Vnet.Medium.byte_time_ns Vnet.Medium.config_10mb);
  Alcotest.(check int) "3 Mb byte time" 2721 (Vnet.Medium.byte_time_ns cfg3)

let suite =
  [
    Alcotest.test_case "delivery timing" `Quick test_delivery_timing;
    Alcotest.test_case "broadcast" `Quick test_broadcast;
    Alcotest.test_case "broadcast order" `Quick test_broadcast_order;
    test_broadcast_order_model;
    Alcotest.test_case "carrier sense" `Quick test_carrier_sense;
    Alcotest.test_case "collision backoff" `Quick test_collision_backoff;
    Alcotest.test_case "fault drop" `Quick test_fault_drop;
    Alcotest.test_case "fault corrupt + CRC" `Quick test_fault_corrupt_and_crc;
    Alcotest.test_case "partial corruption is per receiver" `Quick
      test_fault_corrupt_isolated;
    Alcotest.test_case "scripted duplicate" `Quick test_scripted_duplicate;
    Alcotest.test_case "scripted reorder" `Quick test_scripted_reorder;
    Alcotest.test_case "broadcast drop per receiver" `Quick
      test_broadcast_drop_per_receiver;
    Alcotest.test_case "drop events name receiver" `Quick
      test_drop_events_name_receiver;
    Alcotest.test_case "nic tx costs" `Quick test_nic_costs;
    Alcotest.test_case "nic tx buffer" `Quick test_nic_tx_buffer_serializes;
    Alcotest.test_case "utilization metering" `Quick test_utilization_metering;
    Alcotest.test_case "oversize rejected" `Quick test_oversize_rejected;
    Alcotest.test_case "bit rates" `Quick test_10mb_config;
  ]
