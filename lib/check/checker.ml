type violation = { invariant : string; detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "%s: %s" v.invariant v.detail

(* Shared across all workloads: protocol tables must be empty at
   quiescence, and each medium's frame accounting must balance. *)
let kernel_violations ~add (kernels : Workload.kernel_probe list) =
  List.iter
    (fun (p : Workload.kernel_probe) ->
      let t = p.Workload.tables in
      let leak name n =
        if n <> 0 then
          add "table-drain"
            (Printf.sprintf "host %d: %d %s left at quiescence"
               p.Workload.host n name)
      in
      leak "live aliens" t.Vkernel.Kernel.aliens_live;
      leak "incomplete mt_ins" t.Vkernel.Kernel.mt_ins_incomplete;
      leak "mt_outs" t.Vkernel.Kernel.mt_outs_pending;
      leak "mf_outs" t.Vkernel.Kernel.mf_outs_pending;
      leak "getpid waits" t.Vkernel.Kernel.getpid_pending;
      leak "blocked senders" t.Vkernel.Kernel.sends_blocked)
    kernels

let medium_conservation ~add ?(label = "medium") (m : Vnet.Medium.stats) =
  let open Vnet.Medium in
  if m.targeted + m.duplicated <> m.delivered + m.dropped then
    add "conservation"
      (Printf.sprintf
         "%s: targeted %d + duplicated %d <> delivered %d + dropped %d" label
         m.targeted m.duplicated m.delivered m.dropped)

let kernel_and_medium_violations ~add (kernels : Workload.kernel_probe list)
    (m : Vnet.Medium.stats) =
  kernel_violations ~add kernels;
  medium_conservation ~add m

(* Judge one run report against the paper's claims.  A depth-2 schedule
   can force at most a few retransmissions, far under max_retries, so
   under any such schedule every operation must still succeed. *)
let violations_of (r : Workload.report) =
  let vs = ref [] in
  let add invariant detail = vs := { invariant; detail } :: !vs in
  if not r.Workload.completed then
    add "termination"
      (Printf.sprintf "run did not quiesce cleanly (%d events executed)"
         r.Workload.events);
  List.iter
    (fun (o : Workload.op_result) ->
      if not o.Workload.ok then
        add "op-result"
          (Printf.sprintf "%s failed (%s)" o.Workload.op o.Workload.detail))
    r.Workload.ops;
  if r.Workload.completed && List.length r.Workload.ops < Workload.op_count
  then
    add "op-result"
      (Printf.sprintf "only %d of %d operations ran"
         (List.length r.Workload.ops) Workload.op_count);
  List.iter
    (fun (name, n) ->
      if n <> 1 then
        add "exactly-once"
          (Printf.sprintf "server %s applied %d times (want 1)" name n))
    r.Workload.ledger;
  if r.Workload.pages_written <> 1 then
    add "exactly-once"
      (Printf.sprintf "file server wrote %d pages (want 1)"
         r.Workload.pages_written);
  if r.Workload.completed && not r.Workload.file_ok then
    add "data" "server-side file bytes differ from the client's write";
  kernel_and_medium_violations ~add r.Workload.kernels r.Workload.medium;
  List.rev !vs

(* Judge one crash run.  The three crash-specific invariants the
   journal + recovery machinery must uphold:
   - durability: a write the client saw acknowledged survives the crash
     (its bytes are on the disk after recovery);
   - atomicity: every block is entirely its old image or entirely its
     new one — a torn block means a mutation was half-applied;
   - fs-consistency: the recovered file system passes {!Vfs.Fs.check}
     (bitmap, inode table and directory agree).
   Termination and per-op success still apply: every enumerated crash
   comes with a restart, so the client must eventually finish. *)
let crash_violations_of (r : Crash_workload.report) =
  let vs = ref [] in
  let add invariant detail = vs := { invariant; detail } :: !vs in
  if not r.Crash_workload.completed then
    add "termination"
      (Printf.sprintf "run did not quiesce cleanly (%d events executed)"
         r.Crash_workload.events);
  List.iter
    (fun (o : Crash_workload.op_result) ->
      if not o.Crash_workload.ok then
        add "op-result"
          (Printf.sprintf "%s failed (%s)" o.Crash_workload.op
             o.Crash_workload.detail))
    r.Crash_workload.ops;
  if
    r.Crash_workload.completed
    && List.length r.Crash_workload.ops < Crash_workload.op_count
  then
    add "op-result"
      (Printf.sprintf "only %d of %d operations ran"
         (List.length r.Crash_workload.ops)
         Crash_workload.op_count);
  List.iter
    (fun b ->
      add "durability" (Printf.sprintf "acknowledged write to block %d lost" b))
    r.Crash_workload.acked_lost;
  List.iter
    (fun b ->
      add "atomicity"
        (Printf.sprintf "block %d torn: neither old nor new image" b))
    r.Crash_workload.torn;
  List.iter (fun msg -> add "fs-consistent" msg) r.Crash_workload.fsck;
  kernel_and_medium_violations ~add r.Crash_workload.kernels
    r.Crash_workload.medium;
  List.rev !vs

(* Judge one shared-file coherence run.  The invariant this workload
   exists for is {e no-stale-read}: every read in the script must
   observe the latest acknowledged write, because the server breaks all
   conflicting leases (blocking on each holder's acknowledgement)
   before acking any mutation.  Its companion is the lease fast path:
   when client A's reopen happened under a still-valid lease, it must
   have cost zero server requests. *)
let shared_violations_of (r : Shared_workload.report) =
  let vs = ref [] in
  let add invariant detail = vs := { invariant; detail } :: !vs in
  if not r.Shared_workload.completed then
    add "termination"
      (Printf.sprintf "run did not quiesce cleanly (%d events executed)"
         r.Shared_workload.events);
  List.iter
    (fun (o : Shared_workload.op_result) ->
      if not o.Shared_workload.ok then
        add "op-result"
          (Printf.sprintf "%s failed (%s)" o.Shared_workload.op
             o.Shared_workload.detail))
    r.Shared_workload.ops;
  if
    r.Shared_workload.completed
    && List.length r.Shared_workload.ops < Shared_workload.op_count
  then
    add "op-result"
      (Printf.sprintf "only %d of %d operations ran"
         (List.length r.Shared_workload.ops)
         Shared_workload.op_count);
  List.iter (fun msg -> add "no-stale-read" msg) r.Shared_workload.stale;
  (match r.Shared_workload.lease_reopen_rpcs with
  | Some n when n <> 0 ->
      add "lease-fast-path"
        (Printf.sprintf "reopen under a valid lease cost %d server requests \
                         (want 0)" n)
  | _ -> ());
  kernel_and_medium_violations ~add r.Shared_workload.kernels
    r.Shared_workload.medium;
  List.rev !vs

(* Judge one cross-segment run.  The deepened retry budget means even a
   full gateway outage is survivable, so per-op success still holds
   under any depth-2 schedule.  Two internetwork-specific invariants:
   conservation must hold on every segment independently, and no
   unicast frame may reach the gateway unrouted (the topology installs a
   route for every host). *)
let inet_violations_of (r : Inet_workload.report) =
  let vs = ref [] in
  let add invariant detail = vs := { invariant; detail } :: !vs in
  if not r.Inet_workload.completed then
    add "termination"
      (Printf.sprintf "run did not quiesce cleanly (%d events executed)"
         r.Inet_workload.events);
  List.iter
    (fun (o : Inet_workload.op_result) ->
      if not o.Inet_workload.ok then
        add "op-result"
          (Printf.sprintf "%s failed (%s)" o.Inet_workload.op
             o.Inet_workload.detail))
    r.Inet_workload.ops;
  if
    r.Inet_workload.completed
    && List.length r.Inet_workload.ops < Inet_workload.op_count
  then
    add "op-result"
      (Printf.sprintf "only %d of %d operations ran"
         (List.length r.Inet_workload.ops)
         Inet_workload.op_count);
  let g = r.Inet_workload.gateway in
  if g.Vnet.Gateway.unrouted <> 0 then
    add "gw-routed"
      (Printf.sprintf "gateway saw %d unroutable unicast frames"
         g.Vnet.Gateway.unrouted);
  kernel_violations ~add r.Inet_workload.kernels;
  List.iteri
    (fun i m ->
      medium_conservation ~add ~label:(Printf.sprintf "segment %d" i) m)
    r.Inet_workload.media;
  List.rev !vs

(* Judge one failover run.  Crash schedules here are crash-stop, so
   termination and per-op success certify that the standby took the
   shard over in time; durability demands the acked writes crossed the
   takeover intact.  One detector-shaped invariant on top: if the
   primary crashed before the client finished writing, somebody must
   actually have taken over. *)
let failover_violations_of (r : Failover_workload.report) =
  let vs = ref [] in
  let add invariant detail = vs := { invariant; detail } :: !vs in
  if not r.Failover_workload.completed then
    add "termination"
      (Printf.sprintf "run did not quiesce cleanly (%d events executed)"
         r.Failover_workload.events);
  List.iter
    (fun (o : Failover_workload.op_result) ->
      if not o.Failover_workload.ok then
        add "op-result"
          (Printf.sprintf "%s failed (%s)" o.Failover_workload.op
             o.Failover_workload.detail))
    r.Failover_workload.ops;
  if
    r.Failover_workload.completed
    && List.length r.Failover_workload.ops < Failover_workload.op_count
  then
    add "op-result"
      (Printf.sprintf "only %d of %d operations ran"
         (List.length r.Failover_workload.ops)
         Failover_workload.op_count);
  List.iter
    (fun b ->
      add "durability" (Printf.sprintf "acknowledged write to block %d lost" b))
    r.Failover_workload.acked_lost;
  List.iter
    (fun b ->
      add "atomicity"
        (Printf.sprintf "block %d torn: neither old nor new image" b))
    r.Failover_workload.torn;
  List.iter (fun msg -> add "fs-consistent" msg) r.Failover_workload.fsck;
  kernel_violations ~add r.Failover_workload.kernels;
  medium_conservation ~add r.Failover_workload.medium;
  List.rev !vs

let run_schedule ?max_events ?seed (s : Schedule.t) =
  violations_of (Workload.run ~fault:(Schedule.to_fault s) ?max_events ?seed ())

let run_crash_schedule ?max_events ?seed (s : Schedule.t) =
  crash_violations_of
    (Crash_workload.run ~fault:(Schedule.to_fault s) ?max_events ?seed ())

let run_shared_schedule ?max_events ?seed (s : Schedule.t) =
  shared_violations_of
    (Shared_workload.run ~fault:(Schedule.to_fault s) ?max_events ?seed ())

let run_inet_schedule ?max_events ?seed (s : Schedule.t) =
  inet_violations_of
    (Inet_workload.run ~fault:(Schedule.to_fault s) ?max_events ?seed ())

let run_failover_schedule ?max_events ?seed (s : Schedule.t) =
  failover_violations_of
    (Failover_workload.run ~fault:(Schedule.to_fault s) ?max_events ?seed ())

(* A deterministic, wall-clock-free digest of one run, for replay
   diagnosis. *)
let pp_report fmt (r : Workload.report) =
  Format.fprintf fmt "completed=%b frames=%d@," r.Workload.completed
    r.Workload.frames;
  List.iter
    (fun (o : Workload.op_result) ->
      Format.fprintf fmt "op %-14s %s (%s)@," o.Workload.op
        (if o.Workload.ok then "ok" else "FAILED")
        o.Workload.detail)
    r.Workload.ops;
  Format.fprintf fmt "ledger:";
  List.iter
    (fun (name, n) -> Format.fprintf fmt " %s=%d" name n)
    r.Workload.ledger;
  Format.fprintf fmt " pages_written=%d file_ok=%b@," r.Workload.pages_written
    r.Workload.file_ok;
  List.iter
    (fun (p : Workload.kernel_probe) ->
      Format.fprintf fmt "host %d: %a@,        %a@," p.Workload.host
        Vkernel.Kernel.pp_stats p.Workload.kstats
        Vkernel.Kernel.pp_table_counts p.Workload.tables)
    r.Workload.kernels;
  let m = r.Workload.medium in
  Format.fprintf fmt
    "medium: attempted=%d targeted=%d delivered=%d dropped=%d duplicated=%d \
     collisions=%d excessive=%d"
    m.Vnet.Medium.attempted m.Vnet.Medium.targeted m.Vnet.Medium.delivered
    m.Vnet.Medium.dropped m.Vnet.Medium.duplicated m.Vnet.Medium.collisions
    m.Vnet.Medium.excessive

let pp_crash_report fmt (r : Crash_workload.report) =
  let open Crash_workload in
  Format.fprintf fmt "completed=%b frames=%d crashes=%d restarts=%d@,"
    r.completed r.frames r.crashes r.restarts;
  List.iter
    (fun (o : op_result) ->
      Format.fprintf fmt "op %-10s %s (%s)@," o.op
        (if o.ok then "ok" else "FAILED")
        o.detail)
    r.ops;
  let ints l = String.concat "," (List.map string_of_int l) in
  Format.fprintf fmt "acked=[%s] lost=[%s] torn=[%s]@," (ints r.acked)
    (ints r.acked_lost) (ints r.torn);
  List.iter (fun msg -> Format.fprintf fmt "fsck: %s@," msg) r.fsck;
  List.iter
    (fun (p : Workload.kernel_probe) ->
      Format.fprintf fmt "host %d: %a@,        %a@," p.Workload.host
        Vkernel.Kernel.pp_stats p.Workload.kstats
        Vkernel.Kernel.pp_table_counts p.Workload.tables)
    r.kernels;
  let m = r.medium in
  Format.fprintf fmt
    "medium: attempted=%d targeted=%d delivered=%d dropped=%d duplicated=%d \
     collisions=%d excessive=%d"
    m.Vnet.Medium.attempted m.Vnet.Medium.targeted m.Vnet.Medium.delivered
    m.Vnet.Medium.dropped m.Vnet.Medium.duplicated m.Vnet.Medium.collisions
    m.Vnet.Medium.excessive

let pp_shared_report fmt (r : Shared_workload.report) =
  let open Shared_workload in
  Format.fprintf fmt "completed=%b frames=%d crashes=%d restarts=%d@,"
    r.completed r.frames r.crashes r.restarts;
  List.iter
    (fun (o : op_result) ->
      Format.fprintf fmt "op %-16s %s (%s)@," o.op
        (if o.ok then "ok" else "FAILED")
        o.detail)
    r.ops;
  Format.fprintf fmt
    "leases: granted=%d broken=%d expired=%d breaks_acked=a:%d,b:%d \
     reopen_rpcs=%s@,"
    r.leases_granted r.leases_broken r.leases_expired r.breaks_a r.breaks_b
    (match r.lease_reopen_rpcs with
    | None -> "untested"
    | Some n -> string_of_int n);
  List.iter (fun msg -> Format.fprintf fmt "stale: %s@," msg) r.stale;
  List.iter
    (fun (p : Workload.kernel_probe) ->
      Format.fprintf fmt "host %d: %a@,        %a@," p.Workload.host
        Vkernel.Kernel.pp_stats p.Workload.kstats
        Vkernel.Kernel.pp_table_counts p.Workload.tables)
    r.kernels;
  let m = r.medium in
  Format.fprintf fmt
    "medium: attempted=%d targeted=%d delivered=%d dropped=%d duplicated=%d \
     collisions=%d excessive=%d"
    m.Vnet.Medium.attempted m.Vnet.Medium.targeted m.Vnet.Medium.delivered
    m.Vnet.Medium.dropped m.Vnet.Medium.duplicated m.Vnet.Medium.collisions
    m.Vnet.Medium.excessive

let pp_medium_line fmt label (m : Vnet.Medium.stats) =
  Format.fprintf fmt
    "%s: attempted=%d targeted=%d delivered=%d dropped=%d duplicated=%d \
     collisions=%d excessive=%d"
    label m.Vnet.Medium.attempted m.Vnet.Medium.targeted
    m.Vnet.Medium.delivered m.Vnet.Medium.dropped m.Vnet.Medium.duplicated
    m.Vnet.Medium.collisions m.Vnet.Medium.excessive

let pp_inet_report fmt (r : Inet_workload.report) =
  let open Inet_workload in
  Format.fprintf fmt "completed=%b frames=%d gw_crashes=%d gw_restarts=%d@,"
    r.completed r.frames r.gw_crashes r.gw_restarts;
  List.iter
    (fun (o : op_result) ->
      Format.fprintf fmt "op %-10s %s (%s)@," o.op
        (if o.ok then "ok" else "FAILED")
        o.detail)
    r.ops;
  let g = r.gateway in
  Format.fprintf fmt
    "gateway: received=%d forwarded=%d rebroadcast=%d queue_drops=%d \
     unrouted=%d suppressed=%d crc_drops=%d down_drops=%d@,"
    g.Vnet.Gateway.received g.Vnet.Gateway.forwarded
    g.Vnet.Gateway.rebroadcast g.Vnet.Gateway.queue_drops
    g.Vnet.Gateway.unrouted g.Vnet.Gateway.suppressed g.Vnet.Gateway.crc_drops
    g.Vnet.Gateway.down_drops;
  List.iter
    (fun (p : Workload.kernel_probe) ->
      Format.fprintf fmt "host %d: %a@,        %a@," p.Workload.host
        Vkernel.Kernel.pp_stats p.Workload.kstats
        Vkernel.Kernel.pp_table_counts p.Workload.tables)
    r.kernels;
  List.iteri
    (fun i m ->
      if i > 0 then Format.fprintf fmt "@,";
      pp_medium_line fmt (Printf.sprintf "segment %d" i) m)
    r.media

let pp_failover_report fmt (r : Failover_workload.report) =
  let open Failover_workload in
  Format.fprintf fmt
    "completed=%b frames=%d crashes=%d took_over=%b probes=%d@," r.completed
    r.frames r.crashes r.took_over r.probes;
  List.iter
    (fun (o : op_result) ->
      Format.fprintf fmt "op %-10s %s (%s)@," o.op
        (if o.ok then "ok" else "FAILED")
        o.detail)
    r.ops;
  let ints l = String.concat "," (List.map string_of_int l) in
  Format.fprintf fmt "acked=[%s] lost=[%s] torn=[%s]@," (ints r.acked)
    (ints r.acked_lost) (ints r.torn);
  List.iter (fun msg -> Format.fprintf fmt "fsck: %s@," msg) r.fsck;
  List.iter
    (fun (p : Workload.kernel_probe) ->
      Format.fprintf fmt "host %d: %a@,        %a@," p.Workload.host
        Vkernel.Kernel.pp_stats p.Workload.kstats
        Vkernel.Kernel.pp_table_counts p.Workload.tables)
    r.kernels;
  pp_medium_line fmt "medium" r.medium

(* Greedy delta debugging: drop one entry at a time, keeping any removal
   that preserves a violation, until no single removal does.  [run] is a
   parameter so the strategy is testable against synthetic oracles. *)
let shrink ~run (s : Schedule.t) =
  let violates s = run s <> [] in
  let rec go s =
    let n = List.length s in
    let rec try_without i =
      if i >= n then s
      else
        let candidate = List.filteri (fun j _ -> j <> i) s in
        if violates candidate then go candidate else try_without (i + 1)
    in
    if n <= 1 then s else try_without 0
  in
  go s

type sweep_failure = {
  schedule : Schedule.t;
  minimal : Schedule.t;
  violations : violation list;
}

type sweep_report = {
  depth : int;
  limit : int;
  schedules_run : int;
  baseline_frames : int;
  failure : sweep_failure option;
}

(* Shared sweep driver: run every schedule of a (lazy, deterministic)
   enumeration and stop at the first violation (shrunk to a minimal
   reproducer) or at [limit].

   Execution is chunked through {!Vsim.Pool}: each chunk of the
   enumeration becomes a batch of jobs, results come back in enumeration
   order, and the first violating schedule is found by scanning the
   batch in order.  Because the scan stops at the first violation,
   [schedules_run] — the 1-based index of the violating schedule, or the
   total enumerated when clean — does not depend on [domains] or on
   chunk size: the report is byte-identical for any domain count.
   Chunks past the first violation are speculative work that is simply
   discarded.  Shrinking stays sequential — it is a chain of dependent
   runs. *)
let sweep_seq ~limit ~domains ~progress ~run seq0 =
  let seq = ref seq0 in
  let taken = ref 0 in
  let next_chunk k =
    let rec go acc k =
      if k = 0 || !taken >= limit then List.rev acc
      else
        match Seq.uncons !seq with
        | None -> List.rev acc
        | Some (s, rest) ->
            seq := rest;
            incr taken;
            go (s :: acc) (k - 1)
    in
    go [] k
  in
  (* Each chunk is one batch handed to the persistent pool's parked
     workers, and the scan waits for the whole batch; big chunks amortize
     that handoff and even out uneven schedule run times.  The price is
     at most a chunk of speculative runs past the first violation. *)
  let chunk = if domains <= 1 then 1 else 32 * domains in
  let ran = ref 0 in
  let failure = ref None in
  let rec loop () =
    match next_chunk chunk with
    | [] -> ()
    | batch ->
        let jobs =
          List.map
            (fun s -> Vsim.Job.v ~label:(Schedule.to_string s) (fun () -> run s))
            batch
        in
        let results = Vsim.Pool.run_list ~domains jobs in
        let rec scan ss rs =
          match (ss, rs) with
          | [], [] -> None
          | s :: ss', vs :: rs' -> (
              incr ran;
              progress !ran;
              match vs with [] -> scan ss' rs' | _ :: _ -> Some s)
          | _ -> assert false
        in
        (match scan batch results with
        | None -> loop ()
        | Some s ->
            let minimal = shrink ~run s in
            failure := Some { schedule = s; minimal; violations = run minimal })
  in
  loop ();
  (!ran, !failure)

(* Enumerate network-fault schedules over the baseline run's frame
   positions.  The baseline run itself must be violation-free. *)
let sweep ?(depth = 2) ?(limit = 600) ?(actions = Schedule.default_actions)
    ?max_events ?seed ?(domains = Vsim.Pool.default_domains)
    ?(progress = fun _ -> ()) () =
  let baseline = Workload.run ?max_events ?seed () in
  match violations_of baseline with
  | _ :: _ as vs -> Error vs
  | [] ->
      let frames = baseline.Workload.frames in
      let run s = run_schedule ?max_events ?seed s in
      let ran, failure =
        sweep_seq ~limit ~domains ~progress ~run
          (Schedule.enumerate ~depth ~frames ~actions)
      in
      Ok { depth; limit; schedules_run = ran; baseline_frames = frames; failure }

(* Crash-point exploration over the crash workload: crash + restart the
   server host at every baseline frame (depth 1), optionally paired with
   one network fault elsewhere (depth 2). *)
let sweep_crash ?(depth = 1) ?(limit = 600) ?restart_ns
    ?(actions = Schedule.default_actions) ?max_events ?seed
    ?(domains = Vsim.Pool.default_domains) ?(progress = fun _ -> ()) () =
  let baseline = Crash_workload.run ?max_events ?seed () in
  match crash_violations_of baseline with
  | _ :: _ as vs -> Error vs
  | [] ->
      let frames = baseline.Crash_workload.frames in
      let run s = run_crash_schedule ?max_events ?seed s in
      let ran, failure =
        sweep_seq ~limit ~domains ~progress ~run
          (Schedule.enumerate_crash ~depth ~frames ?restart_ns ~actions ())
      in
      Ok { depth; limit; schedules_run = ran; baseline_frames = frames; failure }

(* Coherence exploration over the two-client shared-file workload: every
   network-fault schedule (or, with [crash], every crash point paired
   with an optional network fault) against the no-stale-read and
   lease-fast-path invariants. *)
let sweep_shared ?(crash = false) ?(depth = 2) ?(limit = 600) ?restart_ns
    ?(actions = Schedule.default_actions) ?max_events ?seed
    ?(domains = Vsim.Pool.default_domains) ?(progress = fun _ -> ()) () =
  let baseline = Shared_workload.run ?max_events ?seed () in
  match shared_violations_of baseline with
  | _ :: _ as vs -> Error vs
  | [] ->
      let frames = baseline.Shared_workload.frames in
      let run s = run_shared_schedule ?max_events ?seed s in
      let seq =
        if crash then Schedule.enumerate_crash ~depth ~frames ?restart_ns ~actions ()
        else Schedule.enumerate ~depth ~frames ~actions
      in
      let ran, failure = sweep_seq ~limit ~domains ~progress ~run seq in
      Ok { depth; limit; schedules_run = ran; baseline_frames = frames; failure }

(* Cross-segment exploration over the internetwork workload: every
   network-fault schedule on segment 0, or with [crash] every GATEWAY
   crash + restart point paired with an optional network fault — the
   gateway outage / partition-healing regime. *)
let sweep_inet ?(crash = false) ?(depth = 2) ?(limit = 600) ?restart_ns
    ?(actions = Schedule.default_actions) ?max_events ?seed
    ?(domains = Vsim.Pool.default_domains) ?(progress = fun _ -> ()) () =
  let baseline = Inet_workload.run ?max_events ?seed () in
  match inet_violations_of baseline with
  | _ :: _ as vs -> Error vs
  | [] ->
      let frames = baseline.Inet_workload.frames in
      let run s = run_inet_schedule ?max_events ?seed s in
      let seq =
        if crash then
          Schedule.enumerate_crash ~depth ~frames ?restart_ns ~actions ()
        else Schedule.enumerate ~depth ~frames ~actions
      in
      let ran, failure = sweep_seq ~limit ~domains ~progress ~run seq in
      Ok { depth; limit; schedules_run = ran; baseline_frames = frames; failure }

(* Failover exploration: crash-STOP the shard-A primary at every
   baseline frame (depth 1), optionally paired with one network fault
   (depth 2), via {!Schedule.enumerate_crash_only}.  Completion under
   every schedule certifies the standby takeover; durability certifies
   no acked write was lost across it. *)
let sweep_failover ?(depth = 1) ?(limit = 600)
    ?(actions = Schedule.default_actions) ?max_events ?seed
    ?(domains = Vsim.Pool.default_domains) ?(progress = fun _ -> ()) () =
  let baseline = Failover_workload.run ?max_events ?seed () in
  match failover_violations_of baseline with
  | _ :: _ as vs -> Error vs
  | [] ->
      let frames = baseline.Failover_workload.frames in
      let run s = run_failover_schedule ?max_events ?seed s in
      let ran, failure =
        sweep_seq ~limit ~domains ~progress ~run
          (Schedule.enumerate_crash_only ~depth ~frames ~actions ())
      in
      Ok { depth; limit; schedules_run = ran; baseline_frames = frames; failure }

(* Deterministic JSON rendering of a sweep report: everything in it is a
   pure function of the sweep inputs, never of wall clock or [domains],
   so CI can byte-compare this output across domain counts. *)
let report_to_json (r : sweep_report) =
  let open Vobs.Json in
  let failure =
    match r.failure with
    | None -> Null
    | Some f ->
        Obj
          [
            ("schedule", Str (Schedule.to_string f.schedule));
            ("minimal", Str (Schedule.to_string f.minimal));
            ( "violations",
              List
                (List.map
                   (fun v ->
                     Obj
                       [
                         ("invariant", Str v.invariant);
                         ("detail", Str v.detail);
                       ])
                   f.violations) );
          ]
  in
  to_string
    (Obj
       [
         ("checker", Str "vcheck");
         ("depth", Int r.depth);
         ("limit", Int r.limit);
         ("schedules_run", Int r.schedules_run);
         ("baseline_frames", Int r.baseline_frames);
         ("ok", Bool (r.failure = None));
         ("failure", failure);
       ])

let repro_file_contents (s : Schedule.t) (vs : violation list) =
  let b = Buffer.create 256 in
  Buffer.add_string b "# vcheck minimal reproducer -- replay with: vsim check --repro FILE\n";
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "# violates %s: %s\n" v.invariant v.detail))
    vs;
  Buffer.add_string b (Schedule.to_string s);
  Buffer.add_char b '\n';
  Buffer.contents b
