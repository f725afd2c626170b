(* The boot-storm rig: N diskless clients page-load one kernel image from
   a single boot server by multicast, across a gatewayed internetwork.

   The protocol is deliberately frame-level — a boot ROM speaks raw
   Ethernet, not the interkernel protocol — on its own ethertype:

     JOIN    client -> server   unicast   "I want the image"
     PAGE    server -> all      broadcast one image page (round, index)
     END     server -> all      broadcast round over + acknowledged clients
     STATUS  client -> server   unicast   missing count + missing ranges

   The server multicasts every page once, paced so that the gateway
   forwards each page before the next arrives, then re-multicasts the
   union of reported-missing pages in NACK-driven rounds.  A STATUS with
   nothing missing is a DONE; each END carries a bitmap of the clients
   whose DONE the server has heard, and a client not in it answers the
   END again, so a lost DONE is retransmitted until acknowledged.  The
   storm ends when every client is acknowledged (one last END tells them
   all) or after [max_rounds] consecutive rounds that taught the server
   nothing.  Page payloads carry the round number so a re-sent page
   hashes differently and the gateway's broadcast duplicate suppression
   does not eat legitimate retransmissions.  Clients answer at random
   offsets drawn from the engine's generator, so N stations neither
   collide their way through CSMA backoff at one instant nor repeat the
   same unlucky pattern every round. *)

(* The boot server's station address, outside the client range. *)
let server_addr = 251
let default_max_events = 20_000_000

type config = {
  pages : int;  (** image size in pages *)
  page_bytes : int;  (** page payload bytes *)
  max_rounds : int;
      (** give up after this many consecutive rounds that taught the
          server nothing *)
}

let default_config = { pages = 128; page_bytes = 512; max_rounds = 16 }

type report = {
  completed : bool;
  clients : int;
  pages : int;
  page_bytes : int;
  rounds : int;
  joins : int;
  statuses : int;
  acked : int;
  resent_pages : int;
  elapsed_ns : int;
  server_cpu_ns : int;
  wire_bytes : int;
  events : int;
  per_client_pages : int array;
  gateway : Vnet.Gateway.stats;
  media : Vnet.Medium.stats list;
}

let default_segments ~clients =
  let far = clients / 2 in
  [
    { Topology.medium_config = Vnet.Medium.config_10mb;
      seg_hosts = clients - far };
    { Topology.medium_config = Vnet.Medium.config_3mb; seg_hosts = far };
  ]

(* Frame encoding. *)
let op_join = 1
let op_page = 2
let op_end = 3
let op_status = 4

(* PAGE: op, round, index (16 bits), page count (16 bits), then the page. *)
let page_header = 6

(* END: op, round, then one bit per client (address - 1), set once the
   server has heard that client's DONE. *)
let end_header = 2

(* STATUS: op, round, address, missing count, range count (16 bits
   each), then (first, count) ranges of missing pages, as many as fit one
   frame.  A missing count of 0 is a DONE. *)
let status_header = 8
let range_bytes = 4
let max_ranges = (Vnet.Medium.max_payload - status_header) / range_bytes

(* Byte [j] of page [idx] is [(idx * 31 + j * 7) land 0xff], which is
   [page_pattern.[j + off]] for [off = (idx * 31 * 183) land 255], 183
   being the inverse of 7 mod 256: one blit per page, of any size that
   fits a frame. *)
let page_pattern =
  Bytes.init
    (256 + Vnet.Medium.max_payload - page_header)
    (fun k -> Char.chr ((7 * k) land 0xff))

let model = Vhw.Cost_model.sun_10mhz
let k_timer = Vsim.Eventq.Kind.intern "boot.timer"

type client = {
  c_addr : Vnet.Addr.t;
  c_cpu : Vhw.Cpu.t;
  c_medium : Vnet.Medium.t;
  mutable c_got : int;
  mutable c_round : int;  (** the last round it answered *)
}

let validate (config : config) ~segments =
  let n = List.fold_left (fun a s -> a + s.Topology.seg_hosts) 0 segments in
  let frame = page_header + config.page_bytes in
  let fail fmt = Printf.ksprintf Result.error fmt in
  match segments with
  | [] | [ _ ] -> fail "need at least two segments"
  | _ when n < 1 || n > 200 -> fail "need 1..200 clients, not %d" n
  | _ when config.pages < 1 || config.pages > 0xffff ->
      fail "need 1..65535 pages, not %d" config.pages
  | _ when config.page_bytes < 1 ->
      fail "need pages of at least 1 byte, not %d" config.page_bytes
  | _ when frame > Vnet.Medium.max_payload ->
      fail "a %d-byte page makes a %d-byte frame, over the %d-byte maximum"
        config.page_bytes frame Vnet.Medium.max_payload
  | _ -> Ok ()

(* Which client holds which page: a page-major map, one row of [n]
   bytes per page, where client [addr] owns column [addr - 1] and a byte
   is ['\001'] once that client has the page.  The receivers of one PAGE
   all read the same row, a cache line or two, where a map per client
   would put each one's byte on a line of its own.  Rows are small
   enough to be allocated in the minor heap, which one block for the
   whole map would not be.  [has] and [set] skip the bounds checks:
   [client_rx] calls them only after its [idx < config.pages] check
   (the map has [config.pages] rows, and a 16-bit index is never
   negative), [missing_ranges] only below [Array.length have], and a
   column is a client's [c_addr - 1], below [n], the row length. *)
let has have idx col =
  Bytes.unsafe_get (Array.unsafe_get have idx) col <> '\000'

let set have idx col = Bytes.unsafe_set (Array.unsafe_get have idx) col '\001'

(* Counts the runs of pages column [col] of [have] lacks, at most
   [max_ranges] of them, in page order, and writes each one that fits
   into the STATUS payload [p] as its (first, count) range. *)
let missing_ranges have col p =
  let pages = Array.length have in
  let k = ref 0 and i = ref 0 in
  while !i < pages && !k < max_ranges do
    if has have !i col then incr i
    else begin
      let first = !i in
      while !i < pages && not (has have !i col) do
        incr i
      done;
      let at = status_header + (range_bytes * !k) in
      if at + range_bytes <= Bytes.length p then begin
        Bytes.set_uint16_be p at first;
        Bytes.set_uint16_be p (at + 2) (!i - first)
      end;
      incr k
    end
  done;
  !k

let run ?seed ?(config = default_config) ?(max_events = default_max_events)
    ?(faults = []) ~segments () =
  (match validate config ~segments with
  | Ok () -> ()
  | Error e -> invalid_arg ("Boot.run: " ^ e));
  if List.length faults > List.length segments then
    invalid_arg "Boot.run: more faults than segments";
  let n = List.fold_left (fun a s -> a + s.Topology.seg_hosts) 0 segments in
  let eng = Vsim.Engine.create ?seed () in
  let media =
    Array.of_list
      (List.map (fun s -> Vnet.Medium.create eng s.Topology.medium_config)
         segments)
  in
  let gw =
    Vnet.Gateway.create eng ~addr:Topology.gateway_addr (Array.to_list media)
  in
  List.iteri
    (fun i fault ->
      Vnet.Medium.set_fault media.(i) fault;
      Vnet.Medium.set_host_handler media.(i)
        ~crash:(fun () -> Vnet.Gateway.crash gw)
        ~restart:(fun () -> Vnet.Gateway.restart gw))
    faults;
  let rng = Vsim.Engine.rng eng in
  (* The path's bottleneck: the gateway stores and copies a [len]-byte
     frame, then re-sends it on a segment no faster than the slowest one.
     PAGEs go out one [pace] apart, so the gateway's queue never grows;
     clients answer within [window], which gives the gateway one small
     STATUS's crossing time per client. *)
  let slowest =
    List.fold_left
      (fun a s ->
        Int.max a (Vnet.Medium.byte_time_ns s.Topology.medium_config))
      0 segments
  in
  let crossing len =
    let gw = Vnet.Gateway.default_config in
    gw.Vnet.Gateway.fixed_ns + (len * (gw.Vnet.Gateway.per_byte_ns + slowest))
  in
  let pace = crossing (page_header + config.page_bytes) in
  let window = n * crossing (status_header + range_bytes) in
  let tx_cost len =
    Vhw.Cost_model.(
      model.pkt_send_setup_ns + (model.nic_copy_ns_per_byte * len))
  in
  let rx_cost len =
    Vhw.Cost_model.(
      model.pkt_recv_handling_ns + (model.nic_copy_ns_per_byte * len))
  in
  let send cpu medium ~src ~dst p =
    Vhw.Cpu.charge_k cpu
      (tx_cost (Bytes.length p))
      (fun () ->
        Vnet.Medium.transmit medium
          (Vnet.Frame.make ~src ~dst ~ethertype:Vnet.Frame.ethertype_boot p))
  in
  (* The boot server: one CPU and one raw station on segment 0. *)
  let s_cpu =
    Vhw.Cpu.create eng ~host:server_addr ~model ~name:"boot-server"
  in
  let broadcast p =
    send s_cpu media.(0) ~src:server_addr ~dst:Vnet.Addr.broadcast p
  in
  Vnet.Gateway.add_route gw ~host:server_addr ~segment:0;
  let joins = ref 0 in
  let statuses = ref 0 in
  let resent = ref 0 in
  let rounds = ref 0 in
  let completed = ref false in
  let completed_at = ref 0 in
  let acked = Bytes.make ((n + 7) / 8) '\000' in
  let acked_count = ref 0 in
  (* The fewest pages each client has said it misses, and whether this
     round taught the server anything (a DONE or a shorter missing set). *)
  let reported = Array.make n max_int in
  let progress = ref false in
  let idle_rounds = ref 0 in
  let missing_union = Array.make config.pages false in
  let have = Array.init config.pages (fun _ -> Bytes.make n '\000') in
  (* The clients: a boot ROM is a CPU and a raw station, nothing more.
     Station addresses 1..n, assigned segment by segment in order, with
     gateway routes so unicast STATUS crosses segments. *)
  let clients =
    let next = ref 0 in
    let mk seg _ =
      incr next;
      let addr = !next in
      Vnet.Gateway.add_route gw ~host:addr ~segment:seg;
      {
        c_addr = addr;
        c_cpu =
          Vhw.Cpu.create eng ~host:addr ~model
            ~name:("boot-rom" ^ string_of_int addr);
        c_medium = media.(seg);
        c_got = 0;
        c_round = -1;
      }
    in
    Array.of_list
      (List.concat
         (List.mapi
            (fun seg s -> List.init s.Topology.seg_hosts (mk seg))
            segments))
  in
  (* Server-side protocol. *)
  let page_payload round idx =
    let p = Bytes.create (page_header + config.page_bytes) in
    Bytes.set_uint8 p 0 op_page;
    Bytes.set_uint8 p 1 (round land 0xff);
    Bytes.set_uint16_be p 2 idx;
    Bytes.set_uint16_be p 4 config.pages;
    Bytes.blit page_pattern
      ((idx * 31 * 183) land 255)
      p page_header config.page_bytes;
    p
  in
  let end_payload round =
    let p = Bytes.create (end_header + Bytes.length acked) in
    Bytes.set_uint8 p 0 op_end;
    Bytes.set_uint8 p 1 (round land 0xff);
    Bytes.blit acked 0 p end_header (Bytes.length acked);
    p
  in
  let ack i =
    let byte = Bytes.get_uint8 acked (i / 8) and bit = 1 lsl (i land 7) in
    if byte land bit = 0 then begin
      Bytes.set_uint8 acked (i / 8) (byte lor bit);
      incr acked_count;
      progress := true;
      if !acked_count = n then begin
        completed := true;
        completed_at := Vsim.Engine.now eng;
        broadcast (end_payload !rounds)
      end
    end
  in
  let rec start_round round idxs =
    rounds := round;
    if round > 1 then resent := !resent + List.length idxs;
    send_pages round idxs
  and send_pages round = function
    | _ when !completed -> ()
    | idx :: rest ->
        broadcast (page_payload round idx);
        ignore
          (Vsim.Engine.after_kind eng ~kind:k_timer pace (fun () ->
               send_pages round rest))
    | [] ->
        broadcast (end_payload round);
        ignore
          (Vsim.Engine.after_kind eng ~kind:k_timer ((2 * pace) + window)
             (fun () -> close_round round))
  and close_round round =
    if not !completed then begin
      idle_rounds := if !progress then 0 else !idle_rounds + 1;
      progress := false;
      if !idle_rounds < config.max_rounds then begin
        let idxs = ref [] in
        for i = config.pages - 1 downto 0 do
          if missing_union.(i) then begin
            idxs := i :: !idxs;
            missing_union.(i) <- false
          end
        done;
        start_round (round + 1) !idxs
      end
    end
  in
  let server_rx fr =
    let p = fr.Vnet.Frame.payload in
    let len = Bytes.length p in
    if (not fr.Vnet.Frame.corrupted) && len >= 1 then
      let op = Bytes.get_uint8 p 0 in
      if op = op_join && len >= 4 then begin
        incr joins;
        Vhw.Cpu.reserve s_cpu (rx_cost len)
      end
      else if op = op_status && len >= status_header then begin
        incr statuses;
        Vhw.Cpu.reserve s_cpu (rx_cost len);
        let addr = Bytes.get_uint16_be p 2 in
        let missing = Bytes.get_uint16_be p 4 in
        let k = Bytes.get_uint16_be p 6 in
        if addr >= 1 && addr <= n && len >= status_header + (range_bytes * k)
        then
          if missing = 0 then ack (addr - 1)
          else begin
            if missing < reported.(addr - 1) then begin
              reported.(addr - 1) <- missing;
              progress := true
            end;
            for j = 0 to k - 1 do
              let at = status_header + (range_bytes * j) in
              let first = Bytes.get_uint16_be p at in
              let last = first + Bytes.get_uint16_be p (at + 2) in
              for idx = first to Int.min last config.pages - 1 do
                missing_union.(idx) <- true
              done
            done
          end
      end
  in
  let (_ : Vnet.Medium.port) =
    Vnet.Medium.attach media.(0) ~addr:server_addr ~rx:server_rx
  in
  (* Client-side protocol: every answer goes out at a random offset
     within [window], its contents decided when it goes. *)
  let answer c payload =
    ignore
      (Vsim.Engine.after_kind eng ~kind:k_timer (Vsim.Rng.int rng window)
         (fun () -> send c.c_cpu c.c_medium ~src:c.c_addr ~dst:server_addr
                      (payload ())))
  in
  let status_payload c round () =
    (* A DONE has no ranges to find. *)
    let k =
      if c.c_got = config.pages then 0
      else missing_ranges have (c.c_addr - 1) Bytes.empty
    in
    let p = Bytes.create (status_header + (range_bytes * k)) in
    Bytes.set_uint8 p 0 op_status;
    Bytes.set_uint8 p 1 round;
    Bytes.set_uint16_be p 2 c.c_addr;
    Bytes.set_uint16_be p 4 (config.pages - c.c_got);
    Bytes.set_uint16_be p 6 k;
    if k > 0 then ignore (missing_ranges have (c.c_addr - 1) p);
    p
  in
  let client_rx c fr =
    let p = fr.Vnet.Frame.payload in
    let len = Bytes.length p in
    if (not fr.Vnet.Frame.corrupted) && len >= 1 then
      let op = Bytes.get_uint8 p 0 in
      if op = op_page && len >= page_header then begin
        let idx = Bytes.get_uint16_be p 2 in
        if idx < config.pages && not (has have idx (c.c_addr - 1)) then begin
          set have idx (c.c_addr - 1);
          c.c_got <- c.c_got + 1;
          Vhw.Cpu.reserve c.c_cpu (rx_cost len)
        end
      end
      else if op = op_end && len >= end_header + Bytes.length acked then begin
        let round = Bytes.get_uint8 p 1 in
        let i = c.c_addr - 1 in
        let is_acked =
          Bytes.get_uint8 p (end_header + (i / 8)) land (1 lsl (i land 7)) <> 0
        in
        if (not is_acked) && round <> c.c_round then begin
          c.c_round <- round;
          answer c (status_payload c round)
        end
      end
  in
  Array.iter
    (fun c ->
      let (_ : Vnet.Medium.port) =
        Vnet.Medium.attach c.c_medium ~addr:c.c_addr ~rx:(client_rx c)
      in
      (* The boot request, at a random instant of the join window. *)
      answer c (fun () ->
          let p = Bytes.create 4 in
          Bytes.set_uint8 p 0 op_join;
          Bytes.set_uint8 p 1 0;
          Bytes.set_uint16_be p 2 c.c_addr;
          p))
    clients;
  (* Round 1 begins once every JOIN has had time to cross. *)
  ignore
    (Vsim.Engine.after_kind eng ~kind:k_timer (window + pace) (fun () ->
         start_round 1 (List.init config.pages Fun.id)));
  let events =
    match Vsim.Engine.run_bounded ~max_events eng with
    | `Quiescent e | `Exhausted e -> e
  in
  {
    completed = !completed;
    clients = n;
    pages = config.pages;
    page_bytes = config.page_bytes;
    rounds = !rounds;
    joins = !joins;
    statuses = !statuses;
    acked = !acked_count;
    resent_pages = !resent;
    elapsed_ns = (if !completed then !completed_at else Vsim.Engine.now eng);
    server_cpu_ns = Vhw.Cpu.busy_ns s_cpu;
    wire_bytes =
      Array.fold_left
        (fun a md -> a + ((Vnet.Medium.stats md).Vnet.Medium.bits_sent / 8))
        0 media;
    events;
    per_client_pages = Array.map (fun c -> c.c_got) clients;
    gateway = Vnet.Gateway.stats gw;
    media = Array.to_list (Array.map Vnet.Medium.stats media);
  }

(* The catalog cells the rig exists to produce: per-1000-client cost of a
   boot storm, in server CPU seconds and network bytes.  Multicast makes
   both sublinear in N — the paper's Section 6 argument for why one file
   server can boot a building full of diskless workstations. *)
let cost_per_1000_clients r =
  let per_k x = x *. 1000.0 /. float_of_int r.clients in
  ( per_k (float_of_int r.server_cpu_ns /. 1e9),
    per_k (float_of_int r.wire_bytes) )
