let k_timeout = Vsim.Eventq.Kind.intern "baseline.timeout"

(* Wire format (ethertype_stream):
   0      op (1 = stream request, 2 = data page, 3 = cumulative ack)
   4..7   stream id
   8..11  inum (requests) / page number (data) / next expected (acks)
   12..15 total pages (data)
   16..   data *)

let hdr_bytes = 16
let op_req = 1
let op_data = 2
let op_ack = 3

(* Pages the server keeps unacknowledged, and its processing per page. *)
let window = 4
let process_ns = Vsim.Time.us 150

let set32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF

let encode ~op ~id ~a ~b ~data =
  let buf = Bytes.make (hdr_bytes + Bytes.length data) '\000' in
  Bytes.set buf 0 (Char.chr op);
  set32 buf 4 id;
  set32 buf 8 a;
  set32 buf 12 b;
  Bytes.blit data 0 buf hdr_bytes (Bytes.length data);
  buf

(* ------------------------------- server ------------------------------- *)

type sreq = { sr_id : int; sr_inum : int; sr_from : Vnet.Addr.t }

type server = {
  s_eng : Vsim.Engine.t;
  s_nic : Vnet.Nic.t;
  s_fs : Vfs.Fs.t;
  s_reqs : sreq Queue.t;
  mutable s_acked : int;
  mutable s_active : int;  (** id of the stream being served, or -1 *)
  mutable s_wake : (unit -> unit) option;
}

let wake s =
  match s.s_wake with
  | Some k ->
      s.s_wake <- None;
      k ()
  | None -> ()

let wait_event s ~timeout =
  (* Returns false on timeout, true when woken by an ack or request.
     [timeout = None] waits indefinitely — and schedules nothing, letting
     an idle simulation quiesce. *)
  Vsim.Proc.suspend (fun resume ->
      match timeout with
      | None -> s.s_wake <- Some (fun () -> resume true)
      | Some timeout ->
          let timer =
            Vsim.Engine.after_kind s.s_eng ~kind:k_timeout timeout (fun () ->
                if s.s_wake <> None then begin
                  s.s_wake <- None;
                  resume false
                end)
          in
          s.s_wake <-
            Some
              (fun () ->
                Vsim.Engine.cancel s.s_eng timer;
                resume true))

let serve_stream s (r : sreq) =
  s.s_active <- r.sr_id;
  s.s_acked <- 0;
  match Vfs.Fs.size s.s_fs ~inum:r.sr_inum with
  | Error _ -> ()
  | Ok size ->
      let npages = (size + Vfs.Fs.block_size - 1) / Vfs.Fs.block_size in
      let next = ref 0 in
      let continue = ref true in
      while s.s_acked < npages && !continue do
        if !next < min (s.s_acked + window) npages then begin
          Vhw.Cpu.charge (Vnet.Nic.cpu s.s_nic) process_ns;
          match
            Vfs.Fs.read s.s_fs ~inum:r.sr_inum ~pos:(!next * Vfs.Fs.block_size)
              ~len:Vfs.Fs.block_size
          with
          | Error _ -> continue := false
          | Ok data ->
              Vnet.Nic.send s.s_nic ~dst:r.sr_from
                ~ethertype:Vnet.Frame.ethertype_stream
                (encode ~op:op_data ~id:r.sr_id ~a:!next ~b:npages ~data);
              incr next
        end
        else if not (wait_event s ~timeout:(Some (Vsim.Time.ms 200))) then
          (* Timeout: go-back-N to the cumulative ack. *)
          next := s.s_acked
      done;
      s.s_active <- -1

let rec server_loop s () =
  match Queue.take_opt s.s_reqs with
  | Some r ->
      serve_stream s r;
      server_loop s ()
  | None ->
      let (_ : bool) = wait_event s ~timeout:None in
      server_loop s ()

let start_server eng ~nic ~fs =
  let s =
    {
      s_eng = eng;
      s_nic = nic;
      s_fs = fs;
      s_reqs = Queue.create ();
      s_acked = 0;
      s_active = -1;
      s_wake = None;
    }
  in
  Vnet.Nic.set_receiver nic ~ethertype:Vnet.Frame.ethertype_stream
    (fun frame ->
      let p = frame.Vnet.Frame.payload in
      if Bytes.length p >= hdr_bytes then begin
        let op = Char.code (Bytes.get p 0) in
        if op = op_req then begin
          Queue.add
            { sr_id = get32 p 4; sr_inum = get32 p 8;
              sr_from = frame.Vnet.Frame.src }
            s.s_reqs;
          wake s
        end
        else if op = op_ack && get32 p 4 = s.s_active then begin
          s.s_acked <- max s.s_acked (get32 p 8);
          wake s
        end
      end);
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng ~name:"stream-server" (server_loop s)
  in
  s

(* ------------------------------- client ------------------------------- *)

type stats = {
  bytes : int;
  pages : int;
  elapsed_ns : int;
  per_page_ns : int;
}

type cstate = {
  mutable next_expected : int;
  mutable total : int;  (** -1 until the first data page arrives *)
  mutable got : int;  (** bytes received *)
  inbox : int Queue.t;  (** sizes of in-order pages awaiting the app *)
  mutable wake : (unit -> unit) option;
}

let stream_file eng ~nic ~server ~inum =
  let st =
    { next_expected = 0; total = -1; got = 0; inbox = Queue.create ();
      wake = None }
  in
  let id = 1 + Vsim.Rng.int (Vsim.Engine.rng eng) 1_000_000 in
  Vnet.Nic.set_receiver nic ~ethertype:Vnet.Frame.ethertype_stream
    (fun frame ->
      let p = frame.Vnet.Frame.payload in
      if
        Bytes.length p >= hdr_bytes
        && Char.code (Bytes.get p 0) = op_data
        && get32 p 4 = id
      then begin
        let page = get32 p 8 in
        st.total <- get32 p 12;
        if page = st.next_expected then begin
          st.next_expected <- page + 1;
          st.got <- st.got + (Bytes.length p - hdr_bytes);
          Queue.add (Bytes.length p - hdr_bytes) st.inbox;
          match st.wake with
          | Some k ->
              st.wake <- None;
              k ()
          | None -> ()
        end
        (* Out-of-order pages are dropped; the server goes back to the
           cumulative ack on timeout. *)
      end);
  let t0 = Vsim.Engine.now eng in
  Vnet.Nic.send nic ~dst:server ~ethertype:Vnet.Frame.ethertype_stream
    (encode ~op:op_req ~id ~a:inum ~b:0 ~data:Bytes.empty);
  let model = Vhw.Cpu.model (Vnet.Nic.cpu nic) in
  let deadline = Vsim.Engine.now eng + Vsim.Time.sec 60 in
  let rec consume pages =
    if st.total >= 0 && st.next_expected >= st.total && Queue.is_empty st.inbox
    then begin
      let elapsed = Vsim.Engine.now eng - t0 in
      Ok
        {
          bytes = st.got;
          pages;
          elapsed_ns = elapsed;
          per_page_ns = (if pages = 0 then 0 else elapsed / pages);
        }
    end
    else
      match Queue.take_opt st.inbox with
      | Some n ->
          (* The copy out of the protocol buffer that streaming implies. *)
          Vhw.Cpu.charge (Vnet.Nic.cpu nic)
            (n * model.Vhw.Cost_model.mem_copy_ns_per_byte);
          Vnet.Nic.send nic ~dst:server
            ~ethertype:Vnet.Frame.ethertype_stream
            (encode ~op:op_ack ~id ~a:st.next_expected ~b:0 ~data:Bytes.empty);
          consume (pages + 1)
      | None ->
          if Vsim.Engine.now eng > deadline then Error "stream timeout"
          else begin
            let ok =
              Vsim.Proc.suspend (fun resume ->
                  let timer =
                    Vsim.Engine.after_kind eng ~kind:k_timeout (Vsim.Time.sec 1)
                      (fun () ->
                        if st.wake <> None then begin
                          st.wake <- None;
                          resume false
                        end)
                  in
                  st.wake <-
                    Some
                      (fun () ->
                        Vsim.Engine.cancel eng timer;
                        resume true))
            in
            ignore ok;
            consume pages
          end
  in
  consume 0
