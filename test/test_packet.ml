(* Tests for interkernel packet serialization. *)

module P = Vkernel.Packet

let all_ops =
  [
    P.Send; P.Reply; P.Reply_pending; P.Nack; P.Data_mt; P.Data_mf;
    P.Data_ack; P.Data_nak; P.Move_from_req; P.Getpid_req; P.Getpid_reply;
    P.Fwd_notice;
  ]

(* The largest fragment a kernel puts on the wire (Kernel.max_seg_append's
   documentation names it). *)
let max_packet_data = 1024

(* A space holding [data] at [pos], and the [~data] argument naming it. *)
let space_with ?(pos = 0) data =
  let mem = Vkernel.Mem.create ~size:(pos + Bytes.length data + 1) in
  Vkernel.Mem.write mem ~pos data;
  (mem, pos, Bytes.length data)

let test_roundtrip_all_ops () =
  List.iter
    (fun op ->
      let msg = Vkernel.Msg.create () in
      Vkernel.Msg.set_u32 msg 4 42;
      let pkt =
        P.make ~op
          ~src_pid:(Vkernel.Pid.make ~host:1 ~local:2)
          ~dst_pid:(Vkernel.Pid.make ~host:3 ~local:4)
          ~seq:77 ~offset:1024 ~total:4096 ~aux:555 ~msg
          ~data:(space_with ~pos:4090 (Bytes.of_string "hello"))
          ()
      in
      match P.of_bytes (P.to_bytes pkt) with
      | Error e -> Alcotest.failf "%s: %s" (P.op_to_string op) e
      | Ok pkt' ->
          Alcotest.(check string)
            (P.op_to_string op)
            (Format.asprintf "%a" P.pp pkt)
            (Format.asprintf "%a" P.pp pkt');
          Alcotest.(check bytes) "data" (Bytes.of_string "hello") (P.data pkt');
          Alcotest.(check int) "msg word" 42 (Vkernel.Msg.get_u32 (P.msg pkt') 4))
    all_ops

(* Every field, the message and 0 to [max_packet_data] data bytes survive
   make and a parse at any offset into a padded payload; the image cut
   short or run long by any amount is rejected with the parser's own
   message. *)
let test_roundtrip_random =
  let gen =
    QCheck.Gen.(
      let u32 = map Int64.to_int (map (fun x -> Int64.logand x 0xFFFF_FFFFL) ui64) in
      let* op = oneofl all_ops in
      let* src = u32 and* dst = u32 and* seq = u32 in
      let* offset = u32 and* total = u32 and* aux = u32 in
      let* msg = string_size (return Vkernel.Msg.length) in
      let* data = string_size (int_bound max_packet_data) in
      let* pad = int_bound 24 and* cut = int_bound (max_packet_data + 64) in
      return (op, [ src; dst; seq; offset; total; aux ], msg, data, pad, cut))
  in
  let print (op, fields, _, data, pad, cut) =
    Printf.sprintf "%s [%s] data=%d pad=%d cut=%d" (P.op_to_string op)
      (String.concat "; " (List.map string_of_int fields))
      (String.length data) pad cut
  in
  Util.qtest ~count:300 "packet roundtrip (random fields)"
    (QCheck.make ~print gen)
    (fun (op, fields, msg, data, pad, cut) ->
      match fields with
      | [ src; dst; seq; offset; total; aux ] ->
          let pkt =
            P.make ~op ~src_pid:(Vkernel.Pid.of_int src)
              ~dst_pid:(Vkernel.Pid.of_int dst) ~seq ~offset ~total ~aux
              ~msg:(Bytes.of_string msg)
              ~data:(space_with ~pos:pad (Bytes.of_string data))
              ()
          in
          let image = P.to_bytes pkt in
          let len = Bytes.length image in
          let padded = Bytes.cat (Bytes.make pad '\xAA') image in
          let parsed_ok =
            match P.of_bytes ~off:pad padded with
            | Error e -> QCheck.Test.fail_reportf "rejected: %s" e
            | Ok p ->
                p.P.op = op
                && Vkernel.Pid.to_int p.P.src_pid = src
                && Vkernel.Pid.to_int p.P.dst_pid = dst
                && p.P.seq = seq && p.P.offset = offset && p.P.total = total
                && p.P.aux = aux
                && p.P.data_len = String.length data
                && Bytes.to_string (P.msg p) = msg
                && Bytes.to_string (P.data p) = data
                && P.wire_length p = len
                && Bytes.equal (P.to_bytes p) image
          in
          let expect_error n =
            if n < P.header_bytes then
              Printf.sprintf "packet too short: %d bytes" n
            else
              Printf.sprintf "length mismatch: header says %d, frame has %d"
                (String.length data) (n - P.header_bytes)
          in
          let rejects n b =
            match P.of_bytes ~off:pad b with
            | Error e when e = expect_error n -> true
            | Error e -> QCheck.Test.fail_reportf "length %d: %S" n e
            | Ok _ -> QCheck.Test.fail_reportf "length %d accepted" n
          in
          let short = Int.min cut len in
          parsed_ok
          && (short = 0 || rejects (len - short) (Bytes.sub padded 0 (pad + len - short)))
          && rejects (len + 1) (Bytes.cat padded (Bytes.make 1 '\000'))
      | _ -> false)

let test_wire_length () =
  let pkt =
    P.make ~op:P.Send
      ~src_pid:(Vkernel.Pid.make ~host:1 ~local:1)
      ~dst_pid:(Vkernel.Pid.make ~host:2 ~local:1)
      ~seq:1 ()
  in
  (* A bare message exchange packet is exactly 64 bytes: this is what the
     network-penalty comparison in Table 5-1 relies on. *)
  Alcotest.(check int) "message packet is 64 bytes" 64 (P.wire_length pkt);
  let pkt512 =
    P.make ~op:P.Send
      ~src_pid:(Vkernel.Pid.make ~host:1 ~local:1)
      ~dst_pid:(Vkernel.Pid.make ~host:2 ~local:1)
      ~seq:1
      ~data:(space_with (Bytes.make 512 'x'))
      ()
  in
  Alcotest.(check int) "page packet is 576 bytes" 576 (P.wire_length pkt512)

(* The packet is its own wire image: sending it again hands out the same
   buffer, and retargeting copies it rather than writing it. *)
let test_image_shared () =
  let src_pid = Vkernel.Pid.make ~host:1 ~local:1
  and dst_pid = Vkernel.Pid.make ~host:2 ~local:1 in
  let pkt =
    P.make ~op:P.Send ~src_pid ~dst_pid ~seq:5
      ~data:(space_with (Bytes.of_string "abc"))
      ()
  in
  let image = P.to_bytes pkt in
  Alcotest.(check bool) "no copy" true (P.to_bytes pkt == image);
  let before = Bytes.copy image in
  let msg = Vkernel.Msg.create () in
  Vkernel.Msg.set_u32 msg 4 7;
  let moved =
    P.retarget ~msg pkt ~dst_pid:(Vkernel.Pid.make ~host:3 ~local:1)
  in
  Alcotest.(check bytes) "original image unchanged" before image;
  match P.of_bytes (P.to_bytes moved) with
  | Error e -> Alcotest.fail e
  | Ok p ->
      Alcotest.(check int) "new destination" 3 (Vkernel.Pid.host p.P.dst_pid);
      Alcotest.(check int) "new message" 7 (Vkernel.Msg.get_u32 (P.msg p) 4);
      Alcotest.(check bytes) "same data" (Bytes.of_string "abc") (P.data p);
      Alcotest.(check int) "same seq" 5 p.P.seq

let test_parse_errors () =
  (match P.of_bytes (Bytes.make 10 '\000') with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short packet accepted");
  let bad_op = Bytes.make 64 '\000' in
  Bytes.set bad_op 0 '\255';
  (match P.of_bytes bad_op with
  | Error e -> Alcotest.(check string) "bad op" "bad op byte 255" e
  | Ok _ -> Alcotest.fail "bad op accepted");
  (* Length mismatch: header claims more data than the frame carries. *)
  let pkt =
    P.make ~op:P.Send
      ~src_pid:(Vkernel.Pid.make ~host:1 ~local:1)
      ~dst_pid:(Vkernel.Pid.make ~host:2 ~local:1)
      ~seq:1
      ~data:(space_with (Bytes.make 100 'x'))
      ()
  in
  let wire = P.to_bytes pkt in
  let truncated = Bytes.sub wire 0 (Bytes.length wire - 10) in
  match P.of_bytes truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated packet accepted"

let suite =
  [
    Alcotest.test_case "roundtrip all ops" `Quick test_roundtrip_all_ops;
    test_roundtrip_random;
    Alcotest.test_case "wire lengths" `Quick test_wire_length;
    Alcotest.test_case "image shared" `Quick test_image_shared;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
  ]
