type op =
  | Send
  | Reply
  | Reply_pending
  | Nack
  | Data_mt
  | Data_mf
  | Data_ack
  | Data_nak
  | Move_from_req
  | Getpid_req
  | Getpid_reply
  | Fwd_notice

(* The decoded header rides beside the wire image it was read from or
   written to: [wire] from [base] on holds the 64-byte header and then
   [data_len] bytes of data.  A made packet's image starts at 0; a
   parsed one's is the frame payload itself, at the offset past any
   link-level padding.  The image is never written after [make]. *)
type t = {
  op : op;
  src_pid : Pid.t;
  dst_pid : Pid.t;
  seq : int;
  offset : int;
  total : int;
  aux : int;
  data_len : int;
  wire : Bytes.t;
  base : int;
}

let header_bytes = 64

let op_to_byte = function
  | Send -> 1
  | Reply -> 2
  | Reply_pending -> 3
  | Nack -> 4
  | Data_mt -> 5
  | Data_mf -> 6
  | Data_ack -> 7
  | Data_nak -> 8
  | Move_from_req -> 9
  | Getpid_req -> 10
  | Getpid_reply -> 11
  | Fwd_notice -> 12

let op_of_byte = function
  | 1 -> Some Send
  | 2 -> Some Reply
  | 3 -> Some Reply_pending
  | 4 -> Some Nack
  | 5 -> Some Data_mt
  | 6 -> Some Data_mf
  | 7 -> Some Data_ack
  | 8 -> Some Data_nak
  | 9 -> Some Move_from_req
  | 10 -> Some Getpid_req
  | 11 -> Some Getpid_reply
  | 12 -> Some Fwd_notice
  | _ -> None

let op_to_string = function
  | Send -> "send"
  | Reply -> "reply"
  | Reply_pending -> "reply-pending"
  | Nack -> "nack"
  | Data_mt -> "data-mt"
  | Data_mf -> "data-mf"
  | Data_ack -> "data-ack"
  | Data_nak -> "data-nak"
  | Move_from_req -> "movefrom-req"
  | Getpid_req -> "getpid-req"
  | Getpid_reply -> "getpid-reply"
  | Fwd_notice -> "fwd-notice"

let msg_off = 32

let set32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF

let check_msg what = function
  | Some m when not (Msg.is_msg m) ->
      invalid_arg ("Packet." ^ what ^ ": bad message size")
  | Some _ | None -> ()

let make ~op ~src_pid ~dst_pid ~seq ?(offset = 0) ?(total = 0) ?(aux = 0)
    ?msg ?data () =
  check_msg "make" msg;
  let data_len = match data with Some (_, _, len) -> len | None -> 0 in
  let b = Bytes.create (header_bytes + data_len) in
  (* The op's word also zeroes the flags and reserved bytes. *)
  set32 b 0 (op_to_byte op);
  set32 b 4 (Pid.to_int src_pid);
  set32 b 8 (Pid.to_int dst_pid);
  set32 b 12 seq;
  set32 b 16 offset;
  set32 b 20 total;
  set32 b 24 data_len;
  set32 b 28 aux;
  (match msg with
  | Some m -> Bytes.blit m 0 b msg_off Msg.length
  | None -> Bytes.fill b msg_off Msg.length '\000');
  (match data with
  | Some (mem, pos, len) -> Mem.blit_out mem ~pos b ~dst_off:header_bytes ~len
  | None -> ());
  { op; src_pid; dst_pid; seq; offset; total; aux; data_len; wire = b;
    base = 0 }

let wire_length t = header_bytes + t.data_len

let to_bytes t =
  if t.base = 0 then t.wire else Bytes.sub t.wire t.base (wire_length t)

let of_bytes ?(off = 0) b =
  let len = Bytes.length b - off in
  if len < header_bytes then
    Error (Printf.sprintf "packet too short: %d bytes" len)
  else
    match op_of_byte (Char.code (Bytes.get b off)) with
    | None ->
        Error (Printf.sprintf "bad op byte %d" (Char.code (Bytes.get b off)))
    | Some op ->
        let data_len = get32 b (off + 24) in
        if header_bytes + data_len <> len then
          Error
            (Printf.sprintf "length mismatch: header says %d, frame has %d"
               data_len (len - header_bytes))
        else
          Ok
            {
              op;
              src_pid = Pid.of_int (get32 b (off + 4));
              dst_pid = Pid.of_int (get32 b (off + 8));
              seq = get32 b (off + 12);
              offset = get32 b (off + 16);
              total = get32 b (off + 20);
              aux = get32 b (off + 28);
              data_len;
              wire = b;
              base = off;
            }

let msg t = Bytes.sub t.wire (t.base + msg_off) Msg.length
let blit_msg t dst = Bytes.blit t.wire (t.base + msg_off) dst 0 Msg.length
let data t = Bytes.sub t.wire (t.base + header_bytes) t.data_len

let blit_data t mem ~pos ~len =
  if len > t.data_len then invalid_arg "Packet.blit_data: past the data";
  Mem.blit_in mem ~pos t.wire ~src_off:(t.base + header_bytes) ~len

let retarget ?msg t ~dst_pid =
  check_msg "retarget" msg;
  let b = Bytes.sub t.wire t.base (wire_length t) in
  set32 b 8 (Pid.to_int dst_pid);
  (match msg with
  | Some m -> Bytes.blit m 0 b msg_off Msg.length
  | None -> ());
  { t with dst_pid; wire = b; base = 0 }

let pp fmt t =
  Format.fprintf fmt "pkt[%s %a->%a seq=%d off=%d tot=%d data=%d]"
    (op_to_string t.op) Pid.pp t.src_pid Pid.pp t.dst_pid t.seq t.offset
    t.total t.data_len
