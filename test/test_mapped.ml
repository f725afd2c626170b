(* The 10 Mb-style table-driven host addressing: logical hosts are not
   station addresses; unknown correspondences are resolved by broadcast
   and learned from received packets (Section 3.1). *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg

(* Build hosts by hand: logical host ids deliberately differ from station
   addresses. *)
let build () =
  let eng = Vsim.Engine.create () in
  let medium = Vnet.Medium.create eng Vnet.Medium.config_10mb in
  let mk ~addr ~host =
    let cpu =
      Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_10mhz
        ~name:(Printf.sprintf "cpu%d" addr)
    in
    let nic = Vnet.Nic.create eng ~cpu ~medium ~addr in
    K.create_mapped eng ~cpu ~nic ~host ()
  in
  let k1 = mk ~addr:7 ~host:4000 in
  let k2 = mk ~addr:9 ~host:5000 in
  (eng, medium, k1, k2)

let test_mapped_exchange () =
  let eng, _medium, k1, k2 = build () in
  let server =
    K.spawn k2 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k2 msg in
          Msg.set_u8 msg 4 (Msg.get_u8 msg 4 + 1);
          ignore (K.reply k2 msg src);
          loop ()
        in
        loop ())
  in
  Alcotest.(check int) "server pid carries logical host" 5000
    (Vkernel.Pid.host server);
  let done_ = ref false in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"client" (fun _ ->
        let msg = Msg.create () in
        for i = 1 to 5 do
          Msg.set_u8 msg 4 i;
          Alcotest.check Util.status "send" K.Ok (K.send k1 msg server);
          Alcotest.(check int) "echo" (i + 1) (Msg.get_u8 msg 4)
        done;
        done_ := true)
  in
  Vsim.Engine.run eng;
  Alcotest.(check bool) "completed" true !done_

let test_mapped_learns_addresses () =
  (* First packet to an unknown logical host goes out as broadcast; once
     the reply teaches the mapping, traffic is unicast. *)
  let eng, medium, k1, k2 = build () in
  let server =
    K.spawn k2 ~name:"server" (fun _ ->
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k2 msg in
          ignore (K.reply k2 msg src);
          loop ()
        in
        loop ())
  in
  let stats0 = ref 0 in
  (* Count broadcast frames via a third station. *)
  let bcast_seen = ref 0 in
  Vnet.Medium.attach medium ~addr:33 ~rx:(fun f ->
      if Vnet.Frame.is_broadcast f then incr bcast_seen);
  ignore stats0;
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"client" (fun _ ->
        let msg = Msg.create () in
        for _ = 1 to 5 do
          ignore (K.send k1 msg server)
        done)
  in
  Vsim.Engine.run eng;
  (* Exactly the first Send should have been broadcast; the server's
     reply taught k1 the station address, and the server learned k1's
     from the request itself. *)
  Alcotest.(check int) "only the first packet broadcast" 1 !bcast_seen

let test_mapped_getpid () =
  let eng, _medium, k1, k2 = build () in
  let spid = ref Vkernel.Pid.nil in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"server" (fun pid ->
        spid := pid;
        K.set_pid k2 ~logical_id:12 pid K.Any;
        Vsim.Proc.sleep (Vsim.Time.sec 1))
  in
  let found = ref None in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"client" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 5);
        found := K.get_pid k1 ~logical_id:12 K.Any)
  in
  Vsim.Engine.run eng;
  Alcotest.(check bool) "discovered across mapped hosts" true
    (!found = Some !spid)

let test_direct_requires_matching_address () =
  let eng = Vsim.Engine.create () in
  let medium = Vnet.Medium.create eng Vnet.Medium.config_3mb in
  let cpu = Vhw.Cpu.create eng ~model:Vhw.Cost_model.sun_10mhz ~name:"c" in
  let nic = Vnet.Nic.create eng ~cpu ~medium ~addr:5 in
  (try
     ignore (K.create eng ~cpu ~nic ~host:6 ());
     Alcotest.fail "mismatched direct host accepted"
   with Invalid_argument _ -> ());
  ignore (K.create eng ~cpu ~nic ~host:5 ())

let suite =
  [
    Alcotest.test_case "mapped exchange" `Quick test_mapped_exchange;
    Alcotest.test_case "broadcast once, then unicast" `Quick
      test_mapped_learns_addresses;
    Alcotest.test_case "mapped getpid" `Quick test_mapped_getpid;
    Alcotest.test_case "direct address check" `Quick
      test_direct_requires_matching_address;
  ]
