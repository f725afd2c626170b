(* Deterministic engine profiler.

   Counts every fired event by its scheduling [kind], plus a wall-clock
   bucket measured around the callback.  Counts depend only on the event
   sequence, so two same-seed runs report byte-identical tables;
   wall-clock buckets and GC figures are diagnostics of the host process
   and are rendered separately ({!pp_wall}) so deterministic output stays
   comparable byte-for-byte.

   Kinds are interned ints (Eventq.Kind), so the per-event accounting is
   an array index, not a hashtable probe.  Rendering resolves names and
   sorts by them, so output does not depend on interning order.

   GC accounting uses [Gc.allocated_bytes] (allocation since the profile
   was created) and [Gc.quick_stat ()] top-of-heap words: both are
   functions of the program's allocation sequence, hence reproducible for
   a fixed workload. *)

type entry = {
  mutable fires : int;
  mutable in_place : int;
  mutable wall_s : float;
}

type t = {
  mutable kinds : entry option array;  (* indexed by Eventq.Kind id *)
  mutable events : int;
  start_alloc_bytes : float;
  start_wall : float;
}

(* Wall-clock source for the per-kind buckets.  [Sys.time] (CPU seconds)
   is the stdlib default; CLIs that link [unix] install
   [Unix.gettimeofday] for real elapsed time. *)
let clock = ref Sys.time
let set_clock f = clock := f

let create () =
  {
    kinds = Array.make (max 16 (Eventq.Kind.count ())) None;
    events = 0;
    start_alloc_bytes = Gc.allocated_bytes ();
    start_wall = !clock ();
  }

let entry t (kind : Eventq.kind) =
  let id = (kind :> int) in
  if id >= Array.length t.kinds then begin
    let bigger = Array.make (max (2 * Array.length t.kinds) (id + 1)) None in
    Array.blit t.kinds 0 bigger 0 (Array.length t.kinds);
    t.kinds <- bigger
  end;
  match t.kinds.(id) with
  | Some e -> e
  | None ->
      let e = { fires = 0; in_place = 0; wall_s = 0.0 } in
      t.kinds.(id) <- Some e;
      e

(* Run [fn] as one fired event of [kind]. *)
let time t ~kind fn =
  let e = entry t kind in
  e.fires <- e.fires + 1;
  t.events <- t.events + 1;
  let t0 = !clock () in
  match fn () with
  | () -> e.wall_s <- e.wall_s +. (!clock () -. t0)
  | exception exn ->
      e.wall_s <- e.wall_s +. (!clock () -. t0);
      raise exn

(* Count one event of [kind] fired in place, inside the callback now
   running, whose wall-clock bucket holds its host time. *)
let in_place t ~kind =
  let e = entry t kind in
  e.fires <- e.fires + 1;
  e.in_place <- e.in_place + 1;
  t.events <- t.events + 1

let events t = t.events

let fold f t acc =
  let acc = ref acc in
  Array.iteri
    (fun id e ->
      match e with None -> () | Some e -> acc := f id e !acc)
    t.kinds;
  !acc

let entries t =
  fold (fun id e acc -> (Eventq.Kind.name (Eventq.Kind.of_int id), e) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let fires t kind =
  let id = (Eventq.Kind.intern kind :> int) in
  if id < Array.length t.kinds then
    match t.kinds.(id) with Some e -> e.fires | None -> 0
  else 0

let wall_total_s t = fold (fun _ e acc -> acc +. e.wall_s) t 0.0
let in_place_total t = fold (fun _ e acc -> acc + e.in_place) t 0

let elapsed_wall_s t = !clock () -. t.start_wall

let allocated_bytes t = Gc.allocated_bytes () -. t.start_alloc_bytes
let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

(* Fold [src] into [dst]: used to aggregate the profiles of the several
   engines one CLI command may create. *)
let merge_into ~dst src =
  Array.iteri
    (fun id e ->
      match e with
      | None -> ()
      | Some e ->
          let d = entry dst (Eventq.Kind.of_int id) in
          d.fires <- d.fires + e.fires;
          d.in_place <- d.in_place + e.in_place;
          d.wall_s <- d.wall_s +. e.wall_s)
    src.kinds;
  dst.events <- dst.events + src.events

let aggregate ps =
  let acc = create () in
  List.iter (merge_into ~dst:acc) ps;
  acc

(* Deterministic rendering: per-kind fire counts and the engine total
   only.  No wall-clock values, and no GC figures — heap
   high-water and allocation totals depend on what else the process (or
   a Pool worker domain) has run, so they'd break the byte-determinism
   of any stream this is printed to. *)
let pp fmt t =
  Format.fprintf fmt "@[<v>-- engine profile --@,";
  Format.fprintf fmt "%-22s %10s@," "event kind" "fires";
  List.iter
    (fun (kind, e) -> Format.fprintf fmt "%-22s %10d@," kind e.fires)
    (entries t);
  Format.fprintf fmt "%-22s %10d@," "total" t.events;
  Format.fprintf fmt "@]"

(* Host-process diagnostics: wall-clock seconds inside callbacks per kind
   (with the count of its events fired in place, which a change of host
   code moves without moving the simulation) and the resulting events/s.  Nondeterministic by nature — callers keep
   this off any byte-compared stream (vsim prints it to stderr). *)
let pp_wall fmt t =
  Format.fprintf fmt "@[<v>-- engine profile (wall clock) --@,";
  List.iter
    (fun (kind, e) ->
      Format.fprintf fmt "%-22s %10.4f s" kind e.wall_s;
      if e.in_place > 0 then
        Format.fprintf fmt "  (%d fired in place)" e.in_place;
      Format.fprintf fmt "@,")
    (entries t);
  let elapsed = elapsed_wall_s t in
  Format.fprintf fmt "%-22s %10.4f s in callbacks, %.4f s elapsed@,"
    "total" (wall_total_s t) elapsed;
  if elapsed > 0.0 then
    Format.fprintf fmt "%.0f events/s@," (float_of_int t.events /. elapsed);
  Format.fprintf fmt "allocated %.1f MB, heap high-water %d words@,"
    (allocated_bytes t /. 1e6)
    (top_heap_words ());
  Format.fprintf fmt "@]"
