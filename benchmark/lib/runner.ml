(* One benchmark run of one workload: untraced reps for the end-to-end
   metrics, then optionally one traced rep for the per-layer metrics,
   plus the consistency checks that make the numbers trustworthy (every
   rep simulates exactly the same thing, and tracing does not perturb
   the simulation). *)

module P = Probe

type traced = { sample : P.sample; layer : (string * float) list; trace : Optrace.t }

type t = {
  workload : string;
  seed : int;
  warmup : P.sample;
  samples : P.sample list;  (** measured untraced reps, in order *)
  heap_mb : float;  (** GC top-of-heap after the warm-up rep *)
  traced : traced option;
}

(* A rep's host times at the yardstick's quiet pace. *)
let setup_s (s : P.sample) = s.setup_s *. s.host_scale
let run_s (s : P.sample) = s.run_s *. s.host_scale
let host_s s = setup_s s +. run_s s
let per ops x = if ops = 0 then 0.0 else float_of_int x /. float_of_int ops
let median_of (samples : P.sample list) f = Stats.median (List.map f samples)

(* The per-layer metrics the traced rep adds to the workload's own
   [stats]-derived ones: the profiler's per-kind fires and wall buckets,
   event counts from a counting tracer, IPC span segments, and host
   figures relative to the untraced reps. *)
let traced_rep prepared ~scale ~untraced =
  Vsim.Profile.set_clock Unix.gettimeofday;
  let prof = Vsim.Profile.create () in
  let counts = Hashtbl.create 32 in
  let tr = Optrace.create () in
  let prev = Vsim.Engine.get_create_hook () in
  Vsim.Engine.set_create_hook
    (Some
       (fun eng ->
         ignore (Vsim.Engine.enable_profiling ~profile:prof eng);
         Optrace.attach tr eng;
         Vsim.Trace.attach eng (fun _ ev ->
             let k = Vsim.Event.name ev in
             Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)));
         Option.iter (fun h -> h eng) prev));
  Gc.full_major ();
  let wall0 = Unix.gettimeofday () in
  let raw =
    Fun.protect ~finally:(fun () -> Vsim.Engine.set_create_hook prev) (fun () -> prepared (Some tr))
  in
  (* The profiler's per-kind buckets are wall-clock; shares are taken of
     the traced rep's wall-clock time. *)
  let wall = Unix.gettimeofday () -. wall0 in
  let (s : P.sample) = scale raw in
  let ops = s.P.attempted and host = host_s s in
  let events = Vsim.Profile.events prof in
  let share prefix =
    List.fold_left
      (fun a (k, e) -> if String.starts_with ~prefix k then a +. e.Vsim.Profile.wall_s else a)
      0.0 (Vsim.Profile.entries prof)
    /. wall
  in
  let count k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  let seg = Optrace.segment_mean_ms tr in
  let layer =
    s.P.layer
    @ [
        ("vsim.events_per_op", per ops events);
        ("vsim.minor_words_per_op", median_of untraced (fun u -> u.P.minor_words /. float_of_int u.P.attempted));
        ("vsim.host_ns_per_event", median_of untraced (fun u -> host_s u *. 1e9 /. float_of_int events));
        ("vsim.outside_callbacks_share", 1.0 -. (Vsim.Profile.wall_total_s prof /. wall));
        ("vsim.host_share_proc", share "proc.");
        ("vhw.host_share", share "cpu.grant");
        ("vhw.cpu_grants_per_op", per ops (Vsim.Profile.fires prof "cpu.grant"));
        ("vnet.host_share", share "net.");
        ("vnet.nic_tx_queued_per_op", per ops (count "nic_busy"));
        ("vnet.span_net_request_ms", seg "net-request");
        ("vnet.span_net_reply_ms", seg "net-reply");
        ("vkernel.host_share", share "kernel.rto");
        ("vkernel.span_client_send_ms", seg "client-send");
        ("vkernel.span_reply_send_ms", seg "reply-send");
        ("vkernel.span_client_resume_ms", seg "client-resume");
        ("vfs.host_share", share "disk.complete");
        ("vfs.span_server_queue_ms", seg "server-queue");
        ("vfs.span_server_work_ms", seg "server-work");
        ("vobs.trace_overhead_x", host /. median_of untraced host_s);
      ]
    @
    if List.mem_assoc "vcheck.schedules" s.P.layer then
      [ ("vcheck.host_ms_per_schedule", median_of untraced (fun u -> run_s u *. 1e3 /. float_of_int u.P.attempted)) ]
    else []
  in
  { sample = s; layer; trace = tr }

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* An unmeasured warm-up rep grows the heap and touches the code first;
   its heap high-water mark, taken in a fresh process, is the memory one
   rep needs, and does not depend on how many reps follow.  Measured reps
   then repeat until [seconds] of wall-clock time have passed (at least
   one); the traced rep, if any, comes last.  Every rep starts from a
   fully collected heap, so none pays for the garbage of the one before
   it, and each measured or traced rep runs between two yardstick runs,
   whose mean sets its [host_scale]. *)
let run ?(size = Workloads.Full) ~seconds ~trace ~seed (w : Workloads.t) =
  let prepared = w.prepare size ~seed in
  Gc.full_major ();
  let warmup = prepared None in
  let heap_mb = heap_mb () in
  let yardstick = ref (Yardstick.seconds ()) in
  let scale (s : P.sample) =
    let before = !yardstick in
    yardstick := Yardstick.seconds ();
    { s with host_scale = 2.0 *. Yardstick.nominal_s /. (before +. !yardstick) }
  in
  let t0 = Unix.gettimeofday () in
  let rec reps acc =
    Gc.full_major ();
    let acc = scale (prepared None) :: acc in
    if Unix.gettimeofday () -. t0 >= seconds then List.rev acc else reps acc
  in
  let samples = reps [] in
  let traced = if trace then Some (traced_rep prepared ~scale ~untraced:samples) else None in
  { workload = w.name; seed; warmup; samples; heap_mb; traced }

let same_simulation (a : P.sample) (b : P.sample) =
  let eq = List.equal (fun (k, x) (k', y) -> k = k' && Float.equal x y) in
  a.attempted = b.attempted && a.failed = b.failed && eq a.sim b.sim && eq a.layer b.layer

(* Wrong data, broken invariants, and any sign that the simulation is
   not the pure function of the seed it must be. *)
let all_reps t =
  (t.warmup :: t.samples) @ Option.fold ~none:[] ~some:(fun tr -> [ tr.sample ]) t.traced

let problems t =
  let f = t.warmup in
  List.sort_uniq compare (List.concat_map (fun (s : P.sample) -> s.problems) (all_reps t))
  @ (if List.for_all (same_simulation f) t.samples then []
     else [ "reps of one seed simulated different things" ])
  @
  match t.traced with
  | Some tr when not (same_simulation f tr.sample) ->
      [ "tracing perturbed the simulation: traced sim_* values differ from untraced" ]
  | Some _ | None -> []

let correct t = problems t = []

let attempted t = List.fold_left (fun a (s : P.sample) -> a + s.attempted) 0 (all_reps t)
let failed t = List.fold_left (fun a (s : P.sample) -> a + s.failed) 0 (all_reps t)

(* End-to-end metrics as (name, value, per-rep values).  Host figures
   have one value per measured rep and report their median; the sim_*
   figures are the same in every rep (checked above), so they carry
   one. *)
let end_to_end t =
  let f = t.warmup in
  let reps name g =
    let v = List.map g t.samples in
    (name, Stats.median v, v)
  in
  let one (name, v) = (name, v, [ v ]) in
  [
    reps "host_ops_per_s" (fun s -> float_of_int s.P.attempted /. run_s s);
    reps "setup_s" setup_s;
    one ("host_peak_heap_mb", t.heap_mb);
    one ("failed_frac", per f.P.attempted f.P.failed);
  ]
  @ List.map one f.P.sim

let per_layer t = match t.traced with Some tr -> tr.layer | None -> []

let unit_of name = match Metric.find name with Some m -> m.Metric.unit | None -> ""

(* --- output --------------------------------------------------------------- *)

let print_lines t =
  let line (name, v) = Printf.printf "%s %.10g %s\n" name v (unit_of name) in
  List.iter (fun (name, v, _) -> line (name, v)) (end_to_end t);
  List.iter line (per_layer t);
  List.iter (fun p -> Printf.eprintf "problem: %s\n" p) (problems t)

(* The last line a run prints: the metrics BENCHMARK.json lists, its
   end-to-end ones for an untraced run and its per-layer ones for a
   traced run.  A listed metric a workload does not have reads 0. *)
let summary_json t =
  let values, names =
    match t.traced with
    | None -> (List.map (fun (n, v, _) -> (n, v)) (end_to_end t), Metric.listed_end_to_end)
    | Some tr -> (tr.layer, Metric.listed_per_layer)
  in
  let metric name =
    ( name,
      Vobs.Json.Obj
        [
          ("value", Float (Option.value ~default:0.0 (List.assoc_opt name values)));
          ("unit", Str (unit_of name));
        ] )
  in
  Vobs.Json.to_string
    (Obj
       [
         ("correct", Bool (correct t));
         ("attempted", Int (attempted t));
         ("failed", Int (failed t));
         ("metrics", Obj (List.map metric names));
       ])

(* Everything a run measured, for --json-out and [vbench compare]. *)
let to_json t =
  let open Vobs.Json in
  let floats l = List (List.map (fun v -> Float v) l) in
  let metric (name, v, reps) =
    let q1, q3 = Stats.quartiles reps in
    ( name,
      Obj
        [
          ("unit", Str (unit_of name));
          ("value", Float v);
          ("q1", Float q1);
          ("q3", Float q3);
          ("reps", floats reps);
        ] )
  in
  Obj
    [
      ("workload", Str t.workload);
      ("seed", Int t.seed);
      ("reps", Int (List.length t.samples));
      ("host_scale", floats (List.map (fun (s : P.sample) -> s.host_scale) t.samples));
      ("correct", Bool (correct t));
      ("attempted", Int (attempted t));
      ("failed", Int (failed t));
      ("problems", List (List.map (fun p -> Str p) (problems t)));
      ("metrics", Obj (List.map metric (end_to_end t)));
      ( "layers",
        Obj (List.map (fun (n, v) -> (n, Obj [ ("unit", Str (unit_of n)); ("value", Float v) ])) (per_layer t)) );
    ]

(* The deterministic part of a run: what the simulation did, without any
   host timing.  Byte-identical for identical seeds. *)
let sim_json t =
  let f = t.warmup in
  let kv l = Vobs.Json.Obj (List.map (fun (k, v) -> (k, Vobs.Json.Float v)) l) in
  Vobs.Json.to_string
    (Obj
       [
         ("attempted", Int f.P.attempted);
         ("failed", Int f.P.failed);
         ("sim", kv f.P.sim);
         ("layer", kv f.P.layer);
       ])

(* Append [run] to the {"runs": [...]} document in [file], one run per
   line. *)
let append_json file run =
  let runs = if Sys.file_exists file then Compare.load file else [] in
  let oc = open_out_bin file in
  output_string oc "{\"runs\": [\n";
  output_string oc (String.concat ",\n" (List.map Vobs.Json.to_string (runs @ [ run ])));
  output_string oc "\n]}\n";
  close_out oc
