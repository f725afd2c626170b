(* Per-host metrics registry: named counters and latency histograms,
   found-or-created on first touch, dumped as a table or JSON at end of
   run.  All dump orders are sorted by (host, name) so output is
   deterministic regardless of hash-table internals. *)

type value = C of Vsim.Stat.Counter.t | H of Vsim.Stat.Histogram.t

type t = { tbl : (int * string, value) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let counter t ~host name =
  match Hashtbl.find_opt t.tbl (host, name) with
  | Some (C c) -> c
  | Some (H _) ->
      invalid_arg
        (Printf.sprintf "Metrics.counter: %s@host%d is a histogram" name host)
  | None ->
      let c = Vsim.Stat.Counter.create name in
      Hashtbl.replace t.tbl (host, name) (C c);
      c

let histogram t ~host ?bounds name =
  match Hashtbl.find_opt t.tbl (host, name) with
  | Some (H h) -> h
  | Some (C _) ->
      invalid_arg
        (Printf.sprintf "Metrics.histogram: %s@host%d is a counter" name host)
  | None ->
      let h = Vsim.Stat.Histogram.create ?bounds () in
      Hashtbl.replace t.tbl (host, name) (H h);
      h

let add t ~host name by = Vsim.Stat.Counter.incr ~by (counter t ~host name)

let observe t ~host ?bounds name v =
  Vsim.Stat.Histogram.add (histogram t ~host ?bounds name) v

(* Small linear buckets suit queue depths; the default decade buckets
   suit nanosecond latencies. *)
let depth_bounds = [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0 |]

let handle t (ev : Vsim.Event.t) =
  match ev with
  | Send { host; remote; _ } ->
      add t ~host (if remote then "sends_remote" else "sends_local") 1
  | Send_done { host; status; _ } ->
      if status <> "ok" then add t ~host "ipc_failures" 1
  | Receive { host; _ } -> add t ~host "receives" 1
  | Reply { host; _ } -> add t ~host "replies" 1
  | Forward { host; _ } -> add t ~host "forwards" 1
  | Move { host; bytes; _ } ->
      add t ~host "moves" 1;
      add t ~host "move_bytes" bytes
  | Move_done { host; status; _ } ->
      if status <> "ok" then add t ~host "ipc_failures" 1
  | Packet_tx { host; bytes; _ } ->
      add t ~host "packets_tx" 1;
      add t ~host "bytes_tx" bytes
  | Packet_rx { host; bytes; _ } ->
      add t ~host "packets_rx" 1;
      add t ~host "bytes_rx" bytes
  | Packet_drop { host; _ } -> add t ~host "packet_drops" 1
  | Retransmit { host; _ } -> add t ~host "retransmits" 1
  | Rtt_sample { host; srtt_ns; _ } ->
      observe t ~host "rtt_estimate_ns" (float_of_int srtt_ns)
  | Backoff { host; rto_ns; _ } ->
      add t ~host "timeouts_fired" 1;
      observe t ~host "backoff_ns" (float_of_int rto_ns)
  | Host_suspected { host; _ } -> add t ~host "host_suspected" 1
  | Collision _ -> add t ~host:0 "collisions" 1
  | Nic_busy { host; _ } -> add t ~host "nic_busy_waits" 1
  | Queue_depth { host; depth; _ } ->
      observe t ~host ~bounds:depth_bounds "recv_queue_depth" (float_of_int depth)
  | Cpu_grant { host; ns; _ } -> add t ~host "cpu_busy_ns" ns
  | Disk_io { host; ns; _ } ->
      add t ~host "disk_ios" 1;
      observe t ~host "disk_ns" (float_of_int ns)
  | Disk_queue { host; depth; wait_ns } ->
      observe t ~host ~bounds:depth_bounds "disk_queue_depth"
        (float_of_int depth);
      observe t ~host "disk_queue_wait_ns" (float_of_int wait_ns)
  | Fs_request { host; _ } -> add t ~host "fs_requests" 1
  | Server_dispatch { host; busy; queued; _ } ->
      add t ~host "server_dispatches" 1;
      observe t ~host ~bounds:depth_bounds "server_busy_workers"
        (float_of_int busy);
      observe t ~host ~bounds:depth_bounds "server_request_queue"
        (float_of_int queued)
  | Cache_op { host; op; _ } -> (
      match op with
      | "hit" -> add t ~host "cache_hits" 1
      | "miss" -> add t ~host "cache_misses" 1
      | "evict" -> add t ~host "cache_evictions" 1
      | "writeback" -> add t ~host "cache_writebacks" 1
      | "invalidate" -> add t ~host "cache_invalidations" 1
      | _ -> ())
  | Span_close { host; total_ns; _ } ->
      observe t ~host "ipc_rtt_ns" (float_of_int total_ns)
  | Span_open _ -> ()

let attach t eng = Vsim.Trace.attach eng (fun _ts ev -> handle t ev)

let sorted_rows t =
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl [] in
  List.sort (fun (a, _) (b, _) -> compare a b) rows

(* Derived per-host cache hit rate: hits / (hits + misses), for every
   host that recorded any cache traffic.  Sorted by host. *)
let cache_hit_rates t =
  let count host name =
    match Hashtbl.find_opt t.tbl (host, name) with
    | Some (C c) -> Vsim.Stat.Counter.value c
    | _ -> 0
  in
  let hosts =
    Hashtbl.fold
      (fun (host, name) _ acc ->
        if (name = "cache_hits" || name = "cache_misses")
           && not (List.mem host acc)
        then host :: acc
        else acc)
      t.tbl []
  in
  List.filter_map
    (fun host ->
      let hits = count host "cache_hits" and misses = count host "cache_misses" in
      if hits + misses = 0 then None
      else Some (host, float_of_int hits /. float_of_int (hits + misses)))
    (List.sort compare hosts)

let pp fmt t =
  Format.fprintf fmt "@[<v>-- metrics --@,";
  List.iter
    (fun ((host, name), v) ->
      match v with
      | C c ->
          Format.fprintf fmt "host %-3d %-18s %d@," host name
            (Vsim.Stat.Counter.value c)
      | H h ->
          Format.fprintf fmt "host %-3d %-18s %a@," host name
            Vsim.Stat.Histogram.pp h)
    (sorted_rows t);
  List.iter
    (fun (host, rate) ->
      Format.fprintf fmt "host %-3d %-18s %.3f@," host "cache_hit_rate" rate)
    (cache_hit_rates t);
  Format.fprintf fmt "@]"

let to_json t =
  let hist_json h =
    (* Derived quantile estimates ride along with the raw buckets so
       catalog lines and downstream consumers need no bucket math. *)
    let quantiles =
      if Vsim.Stat.Histogram.count h = 0 then []
      else
        List.map
          (fun (name, q) ->
            (name, Json.Float (Vsim.Stat.Histogram.quantile h q)))
          [ ("p50", 0.50); ("p95", 0.95); ("p99", 0.99) ]
    in
    Json.Obj
      ([
         ("count", Json.Int (Vsim.Stat.Histogram.count h));
         ("sum", Json.Float (Vsim.Stat.Histogram.sum h));
         ("mean", Json.Float (Vsim.Stat.Histogram.mean h));
       ]
      @ quantiles
      @ [
        ( "buckets",
          Json.List
            (List.map
               (fun (bound, c) ->
                 Json.Obj
                   [
                     ( "le",
                       if bound = infinity then Json.Str "inf"
                       else Json.Float bound );
                     ("count", Json.Int c);
                   ])
               (Vsim.Stat.Histogram.buckets h)) );
      ])
  in
  let by_host = Hashtbl.create 8 in
  List.iter
    (fun ((host, name), v) ->
      let entry =
        match v with
        | C c -> (name, Json.Int (Vsim.Stat.Counter.value c))
        | H h -> (name, hist_json h)
      in
      let prev = try Hashtbl.find by_host host with Not_found -> [] in
      Hashtbl.replace by_host host (entry :: prev))
    (List.rev (sorted_rows t));
  List.iter
    (fun (host, rate) ->
      let prev = try Hashtbl.find by_host host with Not_found -> [] in
      Hashtbl.replace by_host host
        (prev @ [ ("cache_hit_rate", Json.Float rate) ]))
    (cache_hit_rates t);
  let hosts = Hashtbl.fold (fun h _ acc -> h :: acc) by_host [] in
  Json.Obj
    (List.map
       (fun h ->
         (Printf.sprintf "host-%d" h, Json.Obj (Hashtbl.find by_host h)))
       (List.sort compare hosts))
