(* Op spans for the traced rep.

   The benchmark wraps every public call it makes into the simulated
   system (a page read, an [Io.write], a [Kernel.send], one checker
   schedule, one boot storm) in an op span: its simulated start and end.
   The kernel's remote IPC spans ([Vobs.Spans]) are attached to the op
   span that was open for the same engine, client host and pid when the
   IPC span closed; an op's self time is its duration minus the IPC spans
   it covers, i.e. time spent outside remote message exchanges (cache
   hits, local copies, client-side think of the stubs).  Spans whose
   client holds no op span (a server's lease-break Send, say) are kept as
   unattributed.  Everything stays in memory until {!write_jsonl}. *)

type op = {
  name : string;
  run : int;  (** engine index within the rep, from 1 *)
  host : int;  (** client host; 0 for an op that covers a whole engine *)
  pid : int;
  t0 : Vsim.Time.t;
  mutable t1 : Vsim.Time.t;
  mutable ipc : Vobs.Spans.span list;
}

type t = {
  mutable run : int;
  mutable ops : op list;  (* reverse completion order *)
  current : (int * int * int, op) Hashtbl.t;
  mutable unattributed : (int * Vobs.Spans.span) list;
  segs : (string, float ref * int ref) Hashtbl.t;  (* label -> sum ns, count *)
}

let create () =
  {
    run = 0;
    ops = [];
    current = Hashtbl.create 64;
    unattributed = [];
    segs = Hashtbl.create 8;
  }

let on_ipc t run (s : Vobs.Spans.span) =
  List.iter
    (fun (label, ns) ->
      match Hashtbl.find_opt t.segs label with
      | Some (sum, n) ->
          sum := !sum +. float_of_int ns;
          incr n
      | None -> Hashtbl.add t.segs label (ref (float_of_int ns), ref 1))
    s.segments;
  let owner =
    match Hashtbl.find_opt t.current (run, s.host, s.pid) with
    | Some op -> Some op
    | None -> Hashtbl.find_opt t.current (run, 0, 0)
  in
  match owner with
  | Some op when s.t_open >= op.t0 -> op.ipc <- s :: op.ipc
  | Some _ | None -> t.unattributed <- (run, s) :: t.unattributed

(* Called from the traced rep's engine create hook. *)
let attach t eng =
  t.run <- t.run + 1;
  let run = t.run in
  ignore (Vobs.Spans.attach ~on_span:(on_ipc t run) eng)

let start t ~name ~host ~pid ~now =
  let op = { name; run = t.run; host; pid; t0 = now; t1 = now; ipc = [] } in
  Hashtbl.replace t.current (op.run, host, pid) op;
  op

let finish t op ~now =
  op.t1 <- now;
  Hashtbl.remove t.current (op.run, op.host, op.pid);
  t.ops <- op :: t.ops

let ops t = List.rev t.ops

(* Mean duration of an IPC span segment ([client-send], [net-request],
   ...) over the spans that reached that milestone, in ms. *)
let segment_mean_ms t label =
  match Hashtbl.find_opt t.segs label with
  | Some (sum, n) when !n > 0 -> !sum /. float_of_int !n /. 1e6
  | Some _ | None -> 0.0

let ipc_ns (s : Vobs.Spans.span) = s.t_close - s.t_open

let self_ns op =
  op.t1 - op.t0 - List.fold_left (fun acc s -> acc + ipc_ns s) 0 op.ipc

let ipc_json (s : Vobs.Spans.span) =
  let open Vobs.Json in
  Obj
    [
      ("seq", Int s.seq);
      ("t_open", Int s.t_open);
      ("t_close", Int s.t_close);
      ("status", Str s.status);
      ("segments", Obj (List.map (fun (l, ns) -> (l, Int ns)) s.segments));
    ]

let write_jsonl t file =
  let oc = open_out file in
  let line j =
    output_string oc (Vobs.Json.to_string j);
    output_char oc '\n'
  in
  List.iter
    (fun (op : op) ->
      line
        (Vobs.Json.Obj
           [
             ("run", Int op.run);
             ("op", Str op.name);
             ("host", Int op.host);
             ("pid", Int op.pid);
             ("t0_ns", Int op.t0);
             ("t1_ns", Int op.t1);
             ("self_ns", Int (self_ns op));
             ("ipc", List (List.rev_map ipc_json op.ipc));
           ]))
    (ops t);
  List.iter
    (fun (run, s) ->
      line
        (Vobs.Json.Obj
           [
             ("run", Int run);
             ("op", Null);
             ("host", Int s.Vobs.Spans.host);
             ("pid", Int s.Vobs.Spans.pid);
             ("ipc", List [ ipc_json s ]);
           ]))
    (List.rev t.unattributed);
  close_out oc
