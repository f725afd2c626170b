(* Correlates the typed event stream into spans: one span per remote
   Send→Reply round trip, keyed by (client pid, sequence number), split
   into contiguous segments at each protocol milestone.

   The segment boundaries are the event timestamps themselves, so by
   construction the segment durations sum exactly to the span total, and
   the span total equals the elapsed time the blocked client observed:
   the kernel emits Send at the moment the client calls send and
   Send_done at the moment the client resumes.

   Mark labels, in protocol order:
     client-send    send packet handed to the client NIC (kernel setup)
     net-request    request dispatched on the server (wire + rx charge)
     server-queue   server process picked the message up (queueing delay)
     server-work    server called Reply (its processing time)
     reply-send     reply packet handed to the server NIC
     net-reply      reply dispatched on the client (wire + rx charge)
     client-resume  blocked client running again (context switch)
   Lost packets leave marks unset (first arrival wins); the surviving
   segments still tile the span exactly. *)

type span = {
  kind : string;
  pid : int;
  seq : int;
  host : int;
  t_open : Vsim.Time.t;
  t_close : Vsim.Time.t;
  segments : (string * int) list;
  status : string;
}

type building = {
  b_host : int;
  b_open : Vsim.Time.t;
  mutable marks : (string * Vsim.Time.t) list; (* reverse chronological *)
}

type t = {
  eng : Vsim.Engine.t;
  live : (int * int, building) Hashtbl.t;
  mutable completed : span list; (* reverse completion order *)
  mutable n_closed : int;
  on_span : span -> unit;
}

let mark b label time =
  if not (List.mem_assoc label b.marks) then b.marks <- (label, time) :: b.marks

let with_live t key f =
  match Hashtbl.find_opt t.live key with Some b -> f b | None -> ()

let close t key ~status time =
  with_live t key (fun b ->
      Hashtbl.remove t.live key;
      let marks = List.rev (("client-resume", time) :: b.marks) in
      let _, rev_segs =
        List.fold_left
          (fun (prev, acc) (label, at) -> (at, (label, at - prev) :: acc))
          (b.b_open, []) marks
      in
      let span =
        {
          kind = "ipc";
          pid = fst key;
          seq = snd key;
          host = b.b_host;
          t_open = b.b_open;
          t_close = time;
          segments = List.rev rev_segs;
          status;
        }
      in
      t.n_closed <- t.n_closed + 1;
      t.completed <- span :: t.completed;
      (* Re-emitted through the trace stream so file sinks see spans
         inline; the correlator itself ignores Span_* events. *)
      Vsim.Trace.event t.eng
        (Vsim.Event.Span_close
           {
             host = b.b_host;
             kind = "ipc";
             pid = fst key;
             seq = snd key;
             total_ns = time - b.b_open;
             segments = span.segments;
           });
      t.on_span span)

let handle t time (ev : Vsim.Event.t) =
  match ev with
  | Send { host; src; seq; remote = true; _ } ->
      if not (Hashtbl.mem t.live (src, seq)) then begin
        Hashtbl.replace t.live (src, seq)
          { b_host = host; b_open = time; marks = [] };
        Vsim.Trace.event t.eng
          (Vsim.Event.Span_open { host; kind = "ipc"; pid = src; seq })
      end
  | Packet_tx { op = "send"; host; src; seq; _ } ->
      with_live t (src, seq) (fun b ->
          if host = b.b_host then mark b "client-send" time)
  | Packet_rx { op = "send"; host; src; seq; _ } ->
      with_live t (src, seq) (fun b ->
          if host <> b.b_host then mark b "net-request" time)
  | Receive { src; seq; _ } ->
      with_live t (src, seq) (fun b -> mark b "server-queue" time)
  | Reply { remote = true; dst; seq; _ } ->
      with_live t (dst, seq) (fun b -> mark b "server-work" time)
  | Packet_tx { op = "reply"; host; dst; seq; _ } ->
      with_live t (dst, seq) (fun b ->
          if host <> b.b_host then mark b "reply-send" time)
  | Packet_rx { op = "reply"; host; dst; seq; _ } ->
      with_live t (dst, seq) (fun b ->
          if host = b.b_host then mark b "net-reply" time)
  | Send_done { pid; seq; status; _ } -> close t (pid, seq) ~status time
  | _ -> ()

let attach ?(on_span = fun _ -> ()) eng =
  let t =
    {
      eng;
      live = Hashtbl.create 64;
      completed = [];
      n_closed = 0;
      on_span;
    }
  in
  Vsim.Trace.attach eng (handle t);
  t

let spans t = List.rev t.completed
let closed t = t.n_closed
let open_count t = Hashtbl.length t.live
let total_ns span = span.t_close - span.t_open
let segments_sum span = List.fold_left (fun acc (_, d) -> acc + d) 0 span.segments
