(* The boot-storm rig: N diskless clients page-load one kernel image from
   a single boot server by multicast, across a gatewayed internetwork.

   The protocol is deliberately frame-level — a boot ROM speaks raw
   Ethernet, not the interkernel protocol — on its own ethertype:

     JOIN    client -> server   unicast   "I want the image"
     PAGE    server -> all      broadcast one image page (round, index)
     END     server -> all      broadcast round complete
     STATUS  client -> server   unicast   done flag + missing pages (capped)

   The server multicasts every page once, then re-multicasts the union of
   reported-missing pages in NACK-driven rounds until every client reports
   done (or max_rounds passes).  Page payloads carry the round number so a
   re-sent page hashes differently and the gateway's broadcast duplicate
   suppression does not eat legitimate retransmissions.  Client responses
   are staggered by client index to keep N stations from colliding their
   way through CSMA backoff at the same instant. *)

(* The boot server's station address, outside the client range. *)
let server_addr = 251
let default_max_events = 20_000_000

type config = {
  pages : int;  (** image size in pages *)
  page_bytes : int;  (** page payload bytes *)
  stagger_ns : int;  (** per-client offset for JOIN/STATUS responses *)
  join_window_ns : int;  (** extra wait before round 1 starts *)
  status_window_slack_ns : int;  (** extra wait for STATUS after each END *)
  status_cap : int;  (** missing-page indices carried per STATUS *)
  max_rounds : int;  (** give up after this many rounds *)
  cpu_model : Vhw.Cost_model.t;
}

let default_config =
  {
    pages = 128;
    page_bytes = 512;
    stagger_ns = 100_000;
    join_window_ns = 2_000_000;
    status_window_slack_ns = 10_000_000;
    status_cap = 32;
    max_rounds = 16;
    cpu_model = Vhw.Cost_model.sun_10mhz;
  }

type report = {
  completed : bool;
  clients : int;
  pages : int;
  page_bytes : int;
  rounds : int;
  joins : int;
  statuses : int;
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

let k_timer = Vsim.Eventq.Kind.intern "boot.timer"

type client = {
  c_index : int;
  c_addr : Vnet.Addr.t;
  c_cpu : Vhw.Cpu.t;
  c_medium : Vnet.Medium.t;
  c_have : bool array;
  mutable c_got : int;
}

(* A PAGE frame is a 6-byte header and the page. *)
let page_header = 6

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

let run ?seed ?(config = default_config) ?(max_events = default_max_events)
    ~segments () =
  (match validate config ~segments with
  | Ok () -> ()
  | Error e -> invalid_arg ("Boot.run: " ^ e));
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
  let m = config.cpu_model in
  let tx_cost len =
    Vhw.Cost_model.(m.pkt_send_setup_ns + (m.nic_copy_ns_per_byte * len))
  in
  let rx_cost len =
    Vhw.Cost_model.(m.pkt_recv_handling_ns + (m.nic_copy_ns_per_byte * len))
  in
  let bframe ~src ~dst payload =
    Vnet.Frame.make ~src ~dst ~ethertype:Vnet.Frame.ethertype_boot payload
  in
  (* The boot server: one CPU and one raw station on segment 0. *)
  let s_cpu =
    Vhw.Cpu.create eng ~host:server_addr ~model:m ~name:"boot-server"
  in
  Vnet.Gateway.add_route gw ~host:server_addr ~segment:0;
  let joins = ref 0 in
  let statuses = ref 0 in
  let resent = ref 0 in
  let rounds = ref 0 in
  let completed = ref false in
  let completed_at = ref 0 in
  let client_done = Array.make n false in
  let missing_union = Array.make config.pages false in
  (* The clients: a boot ROM is a CPU and a raw station, nothing more.
     Station addresses 1..n, assigned segment by segment in order, with
     gateway routes so unicast STATUS crosses segments. *)
  let clients =
    let next = ref 0 in
    let mk seg _ =
      let i = !next in
      incr next;
      let addr = i + 1 in
      Vnet.Gateway.add_route gw ~host:addr ~segment:seg;
      {
        c_index = i;
        c_addr = addr;
        c_cpu =
          Vhw.Cpu.create eng ~host:addr ~model:m
            ~name:(Printf.sprintf "boot-rom%d" addr);
        c_medium = media.(seg);
        c_have = Array.make config.pages false;
        c_got = 0;
      }
    in
    Array.of_list
      (List.concat
         (List.mapi
            (fun seg s -> List.init s.Topology.seg_hosts (mk seg))
            segments))
  in
  (* Server-side protocol. *)
  let all_done () = Array.for_all Fun.id client_done in
  let finish () =
    if not !completed then begin
      completed := true;
      completed_at := Vsim.Engine.now eng
    end
  in
  let page_payload round idx =
    let p = Bytes.create (page_header + config.page_bytes) in
    Bytes.set_uint8 p 0 op_page;
    Bytes.set_uint8 p 1 round;
    Bytes.set_uint16_be p 2 idx;
    Bytes.set_uint16_be p 4 config.pages;
    for j = 0 to config.page_bytes - 1 do
      Bytes.set_uint8 p (page_header + j) (((idx * 31) + (j * 7)) land 0xff)
    done;
    p
  in
  let end_payload round =
    let p = Bytes.create 4 in
    Bytes.set_uint8 p 0 op_end;
    Bytes.set_uint8 p 1 round;
    Bytes.set_uint16_be p 2 config.pages;
    p
  in
  let status_window = (n * config.stagger_ns) + config.status_window_slack_ns in
  let rec start_round round idxs =
    rounds := round;
    if round > 1 then resent := !resent + List.length idxs;
    send_pages round idxs
  and send_pages round = function
    | idx :: rest ->
        let p = page_payload round idx in
        Vhw.Cpu.charge_k s_cpu
          (tx_cost (Bytes.length p))
          (fun () ->
            Vnet.Medium.transmit media.(0)
              ~on_sent:(fun () -> send_pages round rest)
              (bframe ~src:server_addr ~dst:Vnet.Addr.broadcast p))
    | [] ->
        let p = end_payload round in
        Vhw.Cpu.charge_k s_cpu
          (tx_cost (Bytes.length p))
          (fun () ->
            Vnet.Medium.transmit media.(0)
              ~on_sent:(fun () ->
                ignore
                  (Vsim.Engine.after eng ~kind:k_timer status_window
                     (fun () -> close_round round)))
              (bframe ~src:server_addr ~dst:Vnet.Addr.broadcast p))
  and close_round round =
    if not !completed then
      if all_done () then finish ()
      else if round < config.max_rounds then begin
        let idxs = ref [] in
        for i = config.pages - 1 downto 0 do
          if missing_union.(i) then begin
            idxs := i :: !idxs;
            missing_union.(i) <- false
          end
        done;
        start_round (round + 1) !idxs
      end
  in
  let server_rx fr =
    let p = fr.Vnet.Frame.payload in
    if (not fr.Vnet.Frame.corrupted) && Bytes.length p >= 1 then
      let op = Bytes.get_uint8 p 0 in
      if op = op_join && Bytes.length p >= 4 then begin
        incr joins;
        Vhw.Cpu.reserve s_cpu (rx_cost (Bytes.length p))
      end
      else if op = op_status && Bytes.length p >= 6 then begin
        incr statuses;
        Vhw.Cpu.reserve s_cpu (rx_cost (Bytes.length p));
        let addr = Bytes.get_uint16_be p 2 in
        let is_done = Bytes.get_uint8 p 4 = 1 in
        let k = Bytes.get_uint8 p 5 in
        if addr >= 1 && addr <= n then
          if is_done then begin
            client_done.(addr - 1) <- true;
            if all_done () then finish ()
          end
          else
            for j = 0 to k - 1 do
              if Bytes.length p >= 8 + (2 * j) then begin
                let idx = Bytes.get_uint16_be p (6 + (2 * j)) in
                if idx < config.pages then missing_union.(idx) <- true
              end
            done
      end
  in
  let (_ : Vnet.Medium.port) =
    Vnet.Medium.attach media.(0) ~addr:server_addr ~rx:server_rx
  in
  (* Client-side protocol.  The response slot rotates with the round
     number: a fixed slot per client would make every round's collision
     and queue-overflow pattern identical (the simulation is
     deterministic), so a STATUS lost in round r would be lost in every
     round after it.  Rotation breaks the symmetry — no client keeps the
     same unlucky slot twice. *)
  let send_status c round =
    let slot = (c.c_index + (round * 13)) mod n in
    ignore
      (Vsim.Engine.after eng ~kind:k_timer (slot * config.stagger_ns)
         (fun () ->
           let is_done = c.c_got = config.pages in
           let missing = ref [] in
           if not is_done then (
             let left = ref config.status_cap in
             let i = ref 0 in
             while !left > 0 && !i < config.pages do
               if not c.c_have.(!i) then begin
                 missing := !i :: !missing;
                 decr left
               end;
               incr i
             done);
           let missing = List.rev !missing in
           let k = List.length missing in
           let p = Bytes.create (6 + (2 * k)) in
           Bytes.set_uint8 p 0 op_status;
           Bytes.set_uint8 p 1 round;
           Bytes.set_uint16_be p 2 c.c_addr;
           Bytes.set_uint8 p 4 (if is_done then 1 else 0);
           Bytes.set_uint8 p 5 k;
           List.iteri
             (fun j idx -> Bytes.set_uint16_be p (6 + (2 * j)) idx)
             missing;
           Vhw.Cpu.charge_k c.c_cpu
             (tx_cost (Bytes.length p))
             (fun () ->
               Vnet.Medium.transmit c.c_medium
                 (bframe ~src:c.c_addr ~dst:server_addr p))))
  in
  let client_rx c fr =
    let p = fr.Vnet.Frame.payload in
    if (not fr.Vnet.Frame.corrupted) && Bytes.length p >= 1 then
      let op = Bytes.get_uint8 p 0 in
      if op = op_page && Bytes.length p >= page_header then begin
        let idx = Bytes.get_uint16_be p 2 in
        if idx < config.pages && not c.c_have.(idx) then begin
          c.c_have.(idx) <- true;
          c.c_got <- c.c_got + 1;
          Vhw.Cpu.reserve c.c_cpu (rx_cost (Bytes.length p))
        end
      end
      else if op = op_end && Bytes.length p >= 4 then
        send_status c (Bytes.get_uint8 p 1)
  in
  Array.iter
    (fun c ->
      let (_ : Vnet.Medium.port) =
        Vnet.Medium.attach c.c_medium ~addr:c.c_addr ~rx:(client_rx c)
      in
      (* The boot request: staggered so N ROMs powering on together do not
         collide their way through backoff before the storm even starts. *)
      ignore
        (Vsim.Engine.after eng ~kind:k_timer (c.c_index * config.stagger_ns)
           (fun () ->
             let p = Bytes.create 4 in
             Bytes.set_uint8 p 0 op_join;
             Bytes.set_uint8 p 1 0;
             Bytes.set_uint16_be p 2 c.c_addr;
             Vhw.Cpu.charge_k c.c_cpu
               (tx_cost (Bytes.length p))
               (fun () ->
                 Vnet.Medium.transmit c.c_medium
                   (bframe ~src:c.c_addr ~dst:server_addr p)))))
    clients;
  (* Round 1 begins after every JOIN has had time to land. *)
  ignore
    (Vsim.Engine.after eng ~kind:k_timer
       ((n * config.stagger_ns) + config.join_window_ns)
       (fun () -> start_round 1 (List.init config.pages Fun.id)));
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
