type violation = { invariant : string; detail : string }

let pp_violation fmt v =
  Format.fprintf fmt "%s: %s" v.invariant v.detail

(* Judge one run against the paper's claims.  Every workload gets the
   same prologue — termination, per-op success, and "all operations
   ran" (a depth-2 schedule forces at most a few retransmissions, far
   under max_retries, so every operation must still succeed) — then its
   own invariants, reported by [specific] through [add], then the same
   epilogue: protocol tables empty at quiescence and each medium's frame
   accounting balanced. *)
let judge ~op_count (c : _ Workload.report) specific =
  let vs = ref [] in
  let add invariant detail = vs := { invariant; detail } :: !vs in
  if not c.completed then
    add "termination"
      (match c.unfinished with
      | Some (client, k) ->
          Printf.sprintf "run quiesced with client %s unfinished after op %d"
            client k
      | None ->
          Printf.sprintf "event budget exhausted (%d events executed)"
            c.events);
  List.iter
    (fun (o : Workload.op_result) ->
      if not o.ok then
        add "op-result" (Printf.sprintf "%s failed (%s)" o.op o.detail))
    c.ops;
  if c.completed && List.length c.ops < op_count then
    add "op-result"
      (Printf.sprintf "only %d of %d operations ran" (List.length c.ops)
         op_count);
  specific add;
  List.iter
    (fun (p : Workload.kernel_probe) ->
      let t = p.tables in
      let leak name n =
        if n <> 0 then
          add "table-drain"
            (Printf.sprintf "host %d: %d %s left at quiescence" p.host n name)
      in
      leak "live aliens" t.Vkernel.Kernel.aliens_live;
      leak "incomplete mt_ins" t.Vkernel.Kernel.mt_ins_incomplete;
      leak "mt_outs" t.Vkernel.Kernel.mt_outs_pending;
      leak "mf_outs" t.Vkernel.Kernel.mf_outs_pending;
      leak "getpid waits" t.Vkernel.Kernel.getpid_pending;
      leak "blocked senders" t.Vkernel.Kernel.sends_blocked)
    c.kernels;
  List.iter
    (fun (label, (m : Vnet.Medium.stats)) ->
      if m.targeted + m.duplicated <> m.delivered + m.dropped then
        add "conservation"
          (Printf.sprintf
             "%s: targeted %d + duplicated %d <> delivered %d + dropped %d"
             label m.targeted m.duplicated m.delivered m.dropped))
    c.media;
  List.rev !vs

(* A deterministic, wall-clock-free digest of one run, for replay
   diagnosis: the shared frame around the workload's own lines. *)
let pp_digest ~op_width ~head (c : _ Workload.report) specific fmt =
  Format.fprintf fmt "completed=%b frames=%d" c.completed c.frames;
  List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) head;
  Format.fprintf fmt "@,";
  List.iter
    (fun (o : Workload.op_result) ->
      Format.fprintf fmt "op %-*s %s (%s)@," op_width o.op
        (if o.ok then "ok" else "FAILED")
        o.detail)
    c.ops;
  specific fmt;
  List.iter
    (fun (p : Workload.kernel_probe) ->
      Format.fprintf fmt "host %d: %a@,        %a@," p.host
        Vkernel.Kernel.pp_stats p.kstats Vkernel.Kernel.pp_table_counts
        p.tables)
    c.kernels;
  List.iteri
    (fun i (label, (m : Vnet.Medium.stats)) ->
      if i > 0 then Format.fprintf fmt "@,";
      Format.fprintf fmt
        "%s: attempted=%d targeted=%d delivered=%d dropped=%d duplicated=%d \
         collisions=%d excessive=%d"
        label m.attempted m.targeted m.delivered m.dropped m.duplicated
        m.collisions m.excessive)
    c.media

(* The three recovery invariants the journal + recovery machinery must
   uphold across a crash (and, for failover, across the takeover):
   - durability: a write the client saw acknowledged survives (its bytes
     are on the disk afterwards);
   - atomicity: every block is entirely its old image or entirely its
     new one — a torn block means a mutation was half-applied;
   - fs-consistency: the recovered file system passes {!Vfs.Fs.check}
     (bitmap, inode table and directory agree). *)
let recovery_violations add ({ acked_lost; torn; fsck; _ } : Workload.recovery) =
  List.iter
    (fun b ->
      add "durability" (Printf.sprintf "acknowledged write to block %d lost" b))
    acked_lost;
  List.iter
    (fun b ->
      add "atomicity"
        (Printf.sprintf "block %d torn: neither old nor new image" b))
    torn;
  List.iter (fun msg -> add "fs-consistent" msg) fsck

let pp_recovery fmt ({ acked; acked_lost; torn; fsck } : Workload.recovery) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Format.fprintf fmt "acked=[%s] lost=[%s] torn=[%s]@," (ints acked)
    (ints acked_lost) (ints torn);
  List.iter (fun msg -> Format.fprintf fmt "fsck: %s@," msg) fsck

module Scenario = struct
  type outcome = {
    frames : int;
    violations : violation list;
    pp_digest : Format.formatter -> unit;
  }

  type t = {
    name : string;
    label : string;
    op_count : int;
    run : ?max_events:int -> ?seed:int64 -> Schedule.t -> outcome;
    enumerate :
      depth:int ->
      frames:int ->
      actions:Vnet.Fault.action list ->
      Schedule.t Seq.t;
  }

  (* The digest's first line: the host-event counters the workload's
     target has, then the workload's own [head]. *)
  let counters (w : _ Workload.t) (r : _ Workload.report) =
    let n = string_of_int in
    match Workload.target w with
    | Nothing -> []
    | Server _ -> [ ("crashes", n r.crashes); ("restarts", n r.restarts) ]
    | Server_stop _ -> [ ("crashes", n r.crashes) ]
    | Gateway -> [ ("gw_crashes", n r.crashes); ("gw_restarts", n r.restarts) ]

  (* Close one workload into the uniform [outcome]: [judge] adds the
     workload's own invariants, [pp] prints its own digest lines. *)
  let make ?(head = fun _ -> []) ~judge:specific ~pp ~name ~label ~enumerate
      w =
    let ops = Workload.ops w in
    let op_count = List.length ops in
    let op_width =
      List.fold_left (fun n op -> max n (String.length op + 1)) 10 ops
    in
    let run ?max_events ?seed s =
      let r = Workload.run w ~fault:(Schedule.to_fault s) ?max_events ?seed () in
      {
        frames = r.frames;
        violations = judge ~op_count r (specific r);
        pp_digest =
          pp_digest ~op_width ~head:(counters w r @ head r.extra) r (fun fmt ->
              pp fmt r.extra);
      }
    in
    { name; label; op_count; run; enumerate }

  let restarts =
    Schedule.enumerate_host ~host:(Schedule.Restart Schedule.default_restart_ns)

  (* The basic protocol workload: a server ledger must hold every request
     at exactly one application, and the written file's bytes must match
     the client's. *)
  let net =
    make ~name:"net" ~label:"fault" ~enumerate:Schedule.enumerate Workload.net
      ~judge:(fun r add ->
        let (x : Workload.net) = r.extra in
        List.iter
          (fun (name, n) ->
            if n <> 1 then
              add "exactly-once"
                (Printf.sprintf "server %s applied %d times (want 1)" name n))
          x.ledger;
        if x.pages_written <> 1 then
          add "exactly-once"
            (Printf.sprintf "file server wrote %d pages (want 1)"
               x.pages_written);
        if r.completed && not x.file_ok then
          add "data" "server-side file bytes differ from the client's write")
      ~pp:(fun fmt (x : Workload.net) ->
        Format.fprintf fmt "ledger:";
        List.iter (fun (name, n) -> Format.fprintf fmt " %s=%d" name n)
          x.ledger;
        Format.fprintf fmt " pages_written=%d file_ok=%b@," x.pages_written
          x.file_ok)

  (* Every enumerated crash comes with a restart, so the client must
     still finish, and the recovery invariants must hold. *)
  let crash =
    make ~name:"crash" ~label:"crash" ~enumerate:restarts Workload.crash
      ~judge:(fun r add -> recovery_violations add r.extra)
      ~pp:pp_recovery

  (* The two-client coherence workload exists for {e no-stale-read}:
     every read must observe the latest acknowledged write, because the
     server breaks all conflicting leases (blocking on each holder's
     acknowledgement) before acking any mutation.  Its companion is the
     lease fast path: a reopen under a still-valid lease must cost zero
     server requests. *)
  let shared =
    make Workload.shared
      ~judge:(fun r add ->
        let (x : Workload.shared) = r.extra in
        List.iter (fun msg -> add "no-stale-read" msg) x.stale;
        match x.lease_reopen_rpcs with
        | Some n when n <> 0 ->
            add "lease-fast-path"
              (Printf.sprintf
                 "reopen under a valid lease cost %d server requests (want 0)"
                 n)
        | _ -> ())
      ~pp:(fun fmt (x : Workload.shared) ->
        Format.fprintf fmt
          "leases: granted=%d broken=%d expired=%d breaks_acked=a:%d,b:%d \
           reopen_rpcs=%s@,"
          x.leases_granted x.leases_broken x.leases_expired x.breaks_a
          x.breaks_b
          (match x.lease_reopen_rpcs with
          | None -> "untested"
          | Some n -> string_of_int n);
        List.iter (fun msg -> Format.fprintf fmt "stale: %s@," msg) x.stale)

  (* The deepened retry budget makes even a full gateway outage
     survivable, so per-op success holds here too.  Conservation is
     judged on every segment independently, and no unicast frame may
     reach the gateway unrouted (the topology routes every host). *)
  let inet =
    make Workload.inet
      ~judge:(fun r add ->
        let (g : Vnet.Gateway.stats) = r.extra in
        if g.unrouted <> 0 then
          add "gw-routed"
            (Printf.sprintf "gateway saw %d unroutable unicast frames"
               g.unrouted))
      ~pp:(fun fmt (g : Vnet.Gateway.stats) ->
        Format.fprintf fmt
          "gateway: received=%d forwarded=%d rebroadcast=%d queue_drops=%d \
           unrouted=%d suppressed=%d crc_drops=%d down_drops=%d@,"
          g.received g.forwarded g.rebroadcast g.queue_drops g.unrouted
          g.suppressed g.crc_drops g.down_drops)

  (* Crash schedules here are crash-stop, so termination and per-op
     success certify that the standby took the shard over in time, and
     the recovery invariants certify the acked writes crossed the
     takeover intact. *)
  let failover =
    make ~name:"failover" ~label:"crash-stop failover"
      ~enumerate:(Schedule.enumerate_host ~host:Schedule.Crash)
      Workload.failover
      ~head:(fun (x : Workload.failover) ->
        [ ("took_over", string_of_bool x.took_over);
          ("probes", string_of_int x.probes) ])
      ~judge:(fun r add -> recovery_violations add r.extra.recovery)
      ~pp:(fun fmt (x : Workload.failover) -> pp_recovery fmt x.recovery)

  let all =
    [
      net;
      crash;
      shared ~name:"shared" ~label:"shared-coherence fault"
        ~enumerate:Schedule.enumerate;
      shared ~name:"shared-crash" ~label:"shared-coherence crash"
        ~enumerate:restarts;
      inet ~name:"inet" ~label:"internetwork fault"
        ~enumerate:Schedule.enumerate;
      inet ~name:"inet-crash" ~label:"internetwork gateway-crash"
        ~enumerate:restarts;
      failover;
    ]

  let find name = List.find_opt (fun s -> s.name = name) all
end

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
  scenario : string;
  depth : int;
  limit : int;
  schedules_run : int;
  baseline_frames : int;
  failure : sweep_failure option;
}

(* Run every schedule of a (lazy, deterministic) enumeration and stop at
   the first violation (shrunk to a minimal reproducer) or at [limit].

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
            (fun s ->
              Vsim.Job.v ~label:(lazy (Schedule.to_string s)) (fun () -> run s))
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

(* The baseline run comes first — its engine is the first one created —
   and must itself be violation-free; its frame count sizes the
   scenario's enumeration. *)
let explore (sc : Scenario.t) ?(depth = 2) ?(limit = 600)
    ?(actions = Schedule.default_actions) ?max_events ?seed
    ?(domains = Vsim.Pool.default_domains) ?(progress = fun _ -> ()) () =
  let baseline = sc.run ?max_events ?seed [] in
  match baseline.violations with
  | _ :: _ as vs -> Error vs
  | [] ->
      let frames = baseline.frames in
      let run s = (sc.run ?max_events ?seed s).violations in
      let ran, failure =
        sweep_seq ~limit ~domains ~progress ~run
          (sc.enumerate ~depth ~frames ~actions)
      in
      Ok
        {
          scenario = sc.name;
          depth;
          limit;
          schedules_run = ran;
          baseline_frames = frames;
          failure;
        }

let sweep ?(depth = 2) = explore Scenario.net ~depth
let sweep_crash ?(depth = 1) = explore Scenario.crash ~depth

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
         ("scenario", Str r.scenario);
         ("depth", Int r.depth);
         ("limit", Int r.limit);
         ("schedules_run", Int r.schedules_run);
         ("baseline_frames", Int r.baseline_frames);
         ("ok", Bool (r.failure = None));
         ("failure", failure);
       ])

let scenario_tag = "# scenario:"

let repro_file_contents (sc : Scenario.t) s vs =
  let b = Buffer.create 256 in
  Buffer.add_string b "# vcheck minimal reproducer -- replay with: vsim check --repro FILE\n";
  Buffer.add_string b (Printf.sprintf "%s %s\n" scenario_tag sc.name);
  List.iter
    (fun v ->
      Buffer.add_string b
        (Printf.sprintf "# violates %s: %s\n" v.invariant v.detail))
    vs;
  Buffer.add_string b (Schedule.to_string s);
  Buffer.add_char b '\n';
  Buffer.contents b

(* The scenario comes from the file's [# scenario:] line when it has
   one; an explicit [scenario] must then agree.  A file without the line
   runs [scenario] (default net), except that crash or restart entries
   make the net default ambiguous, so they demand an explicit one. *)
let load_repro ?scenario text =
  let named =
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           let line = String.trim line in
           let n = String.length scenario_tag in
           if String.starts_with ~prefix:scenario_tag line then
             Some (String.trim (String.sub line n (String.length line - n)))
           else None)
  in
  Result.bind (Schedule.of_string text) (fun s ->
      let host_entries =
        List.exists
          (fun (e : Schedule.entry) ->
            match e.action with Net _ -> false | Crash | Restart _ -> true)
          s
      in
      match (named, scenario) with
      | Some name, Some (sc : Scenario.t) when sc.name <> name ->
          Error
            (Printf.sprintf "the reproducer is for scenario %s, not %s" name
               sc.name)
      | Some name, _ -> (
          match Scenario.find name with
          | Some sc -> Ok (sc, s)
          | None ->
              Error (Printf.sprintf "unknown scenario %S in the reproducer" name))
      | None, Some sc -> Ok (sc, s)
      | None, None when host_entries ->
          Error
            "the reproducer has crash or restart entries but names no \
             scenario; pass --scenario"
      | None, None -> Ok (Scenario.net, s))
