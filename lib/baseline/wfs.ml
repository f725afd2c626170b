let k_timeout = Vsim.Eventq.Kind.intern "baseline.timeout"

(* Wire format (payload bytes):
   0      op (1 = read request, 2 = write request, 3 = read response,
             4 = write ack, 5 = error)
   1..3   pad
   4..7   request id
   8..11  inum
   12..15 block
   16..19 count
   20..63 pad (requests are 64 bytes, comparable to an interkernel packet)
   64..   data (responses and write requests) *)

let req_bytes = 64

let op_read = 1
let op_write = 2
let op_read_resp = 3
let op_write_ack = 4
let op_error = 5

(* Each end's handling per request, and the client's retransmissions. *)
let process_ns = Vsim.Time.us 150
let retries = 5

let set32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF

type request = {
  r_op : int;
  r_id : int;
  r_inum : int;
  r_block : int;
  r_count : int;
  r_data : Bytes.t;
  r_from : Vnet.Addr.t;
}

let encode ~op ~id ~inum ~block ~count ~data =
  let b = Bytes.make (req_bytes + Bytes.length data) '\000' in
  Bytes.set b 0 (Char.chr op);
  set32 b 4 id;
  set32 b 8 inum;
  set32 b 12 block;
  set32 b 16 count;
  Bytes.blit data 0 b req_bytes (Bytes.length data);
  b

let decode ~from payload =
  if Bytes.length payload < req_bytes then None
  else
    Some
      {
        r_op = Char.code (Bytes.get payload 0);
        r_id = get32 payload 4;
        r_inum = get32 payload 8;
        r_block = get32 payload 12;
        r_count = get32 payload 16;
        r_data = Bytes.sub payload req_bytes (Bytes.length payload - req_bytes);
        r_from = from;
      }

(* ------------------------------- server ------------------------------- *)

type server = {
  s_eng : Vsim.Engine.t;
  s_nic : Vnet.Nic.t;
  s_fs : Vfs.Fs.t;
  s_queue : request Queue.t;
  mutable s_wakeup : (unit -> unit) option;
}


let serve_one s (r : request) =
  Vhw.Cpu.charge (Vnet.Nic.cpu s.s_nic) process_ns;
  let respond ~op ~data =
    Vnet.Nic.send s.s_nic ~dst:r.r_from ~ethertype:Vnet.Frame.ethertype_wfs
      (encode ~op ~id:r.r_id ~inum:r.r_inum ~block:r.r_block
         ~count:(Bytes.length data) ~data)
  in
  if r.r_op = op_read then begin
    match
      Vfs.Fs.read s.s_fs ~inum:r.r_inum ~pos:(r.r_block * Vfs.Fs.block_size)
        ~len:(min r.r_count Vfs.Fs.block_size)
    with
    | Ok data -> respond ~op:op_read_resp ~data
    | Error _ -> respond ~op:op_error ~data:Bytes.empty
  end
  else if r.r_op = op_write then begin
    match
      Vfs.Fs.write s.s_fs ~inum:r.r_inum ~pos:(r.r_block * Vfs.Fs.block_size) r.r_data
    with
    | Ok () -> respond ~op:op_write_ack ~data:Bytes.empty
    | Error _ -> respond ~op:op_error ~data:Bytes.empty
  end

let rec server_loop s () =
  match Queue.take_opt s.s_queue with
  | Some r ->
      serve_one s r;
      server_loop s ()
  | None ->
      Vsim.Proc.suspend (fun resume ->
          s.s_wakeup <- Some resume);
      server_loop s ()

let start_server eng ~nic ~fs =
  let s =
    {
      s_eng = eng;
      s_nic = nic;
      s_fs = fs;
      s_queue = Queue.create ();
      s_wakeup = None;
    }
  in
  Vnet.Nic.set_receiver nic ~ethertype:Vnet.Frame.ethertype_wfs (fun frame ->
      match decode ~from:frame.Vnet.Frame.src frame.Vnet.Frame.payload with
      | Some r when r.r_op = op_read || r.r_op = op_write ->
          Queue.add r s.s_queue;
          (match s.s_wakeup with
          | Some k ->
              s.s_wakeup <- None;
              k ()
          | None -> ())
      | Some _ | None -> ());
  let (_ : Vsim.Proc.t) = Vsim.Proc.spawn eng ~name:"wfs-server" (server_loop s) in
  s

(* ------------------------------- client ------------------------------- *)

type pending = { p_resume : request option -> unit; mutable p_timer : Vsim.Engine.handle option }

type client = {
  c_eng : Vsim.Engine.t;
  c_nic : Vnet.Nic.t;
  c_server : Vnet.Addr.t;
  c_timeout : Vsim.Time.t;
  c_pending : pending Vsim.Itbl.t;
  mutable c_next_id : int;
  mutable c_retrans : int;
}

let retransmissions c = c.c_retrans

let create_client eng ~nic ~server ?(timeout = Vsim.Time.ms 200) () =
  let c =
    {
      c_eng = eng;
      c_nic = nic;
      c_server = server;
      c_timeout = timeout;
      c_pending = Vsim.Itbl.create 8;
      c_next_id = 0;
      c_retrans = 0;
    }
  in
  Vnet.Nic.set_receiver nic ~ethertype:Vnet.Frame.ethertype_wfs (fun frame ->
      match decode ~from:frame.Vnet.Frame.src frame.Vnet.Frame.payload with
      | Some r -> (
          match Vsim.Itbl.find_opt c.c_pending r.r_id with
          | Some p ->
              Vsim.Itbl.remove c.c_pending r.r_id;
              (match p.p_timer with
              | Some h -> Vsim.Engine.cancel c.c_eng h
              | None -> ());
              p.p_resume (Some r)
          | None -> ())
      | None -> ());
  c

let rpc c ~op ~inum ~block ~count ~data =
  Vhw.Cpu.charge (Vnet.Nic.cpu c.c_nic) process_ns;
  c.c_next_id <- c.c_next_id + 1;
  let id = c.c_next_id in
  let payload () = encode ~op ~id ~inum ~block ~count ~data in
  Vsim.Proc.suspend (fun resume ->
      let p = { p_resume = resume; p_timer = None } in
      Vsim.Itbl.replace c.c_pending id p;
      let rec arm tries =
        p.p_timer <-
          Some
            (Vsim.Engine.after_kind c.c_eng ~kind:k_timeout c.c_timeout
               (fun () ->
                 if Vsim.Itbl.mem c.c_pending id then begin
                   if tries >= retries then begin
                     Vsim.Itbl.remove c.c_pending id;
                     resume None
                   end
                   else begin
                     c.c_retrans <- c.c_retrans + 1;
                     Vnet.Nic.send_k c.c_nic ~dst:c.c_server
                       ~ethertype:Vnet.Frame.ethertype_wfs (payload ())
                       (fun () -> arm (tries + 1))
                   end
                 end))
      in
      Vnet.Nic.send_k c.c_nic ~dst:c.c_server
        ~ethertype:Vnet.Frame.ethertype_wfs (payload ()) (fun () -> arm 1))

let read_page c ~inum ~block ?(count = Vfs.Fs.block_size) () =
  match rpc c ~op:op_read ~inum ~block ~count ~data:Bytes.empty with
  | Some r when r.r_op = op_read_resp -> Ok r.r_data
  | Some _ -> Error "server error"
  | None -> Error "timeout"

let write_page c ~inum ~block data =
  match
    rpc c ~op:op_write ~inum ~block ~count:(Bytes.length data) ~data
  with
  | Some r when r.r_op = op_write_ack -> Ok ()
  | Some _ -> Error "server error"
  | None -> Error "timeout"
