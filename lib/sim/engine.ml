type fiber = ..

type t = {
  mutable clock : Time.t;
  queue : Eventq.t;
  rand : Rng.t;
  mutable tracers : (Time.t -> Event.t -> unit) list;
  mutable profile : Profile.t option;
  mutable fibers : fiber list;
  mutable running : bool;
}

type handle = Eventq.handle

let default_seed = 0x5EED_CAFE_F00DL

(* Invoked on every freshly created engine.  This is how a CLI flag can
   attach trace sinks to engines constructed deep inside experiment rigs
   without threading a parameter through every layer.  The hook is
   domain-local: engines built by Pool worker domains see no hook unless
   their job installs one, so observability sinks wired up on the main
   domain are never shared (or raced) across domains. *)
let create_hook : (t -> unit) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let set_create_hook h = Domain.DLS.get create_hook := h
let get_create_hook () = !(Domain.DLS.get create_hook)

let with_create_hook h f =
  let prev = get_create_hook () in
  set_create_hook h;
  Fun.protect ~finally:(fun () -> set_create_hook prev) f

let create ?(seed = default_seed) () =
  let t =
    { clock = 0; queue = Eventq.create (); rand = Rng.create seed;
      tracers = []; profile = None; fibers = []; running = false }
  in
  (match get_create_hook () with Some hook -> hook t | None -> ());
  t

let add_tracer t f = t.tracers <- t.tracers @ [ f ]
let clear_tracers t = t.tracers <- []
let tracers t = t.tracers
let traced t = t.tracers <> []

let enable_profiling ?profile t =
  match t.profile with
  | Some p -> p
  | None ->
      let p =
        match profile with Some p -> p | None -> Profile.create ()
      in
      t.profile <- Some p;
      p

let profile t = t.profile

let add_fiber t f = t.fibers <- f :: t.fibers

let take_fibers t =
  let fs = t.fibers in
  t.fibers <- [];
  fs

let running t = t.running

let now t = t.clock
let rng t = t.rand

let kind_or_other = function Some k -> k | None -> Eventq.Kind.other

let at t ?kind time fn =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.at: time %d is before now %d" time t.clock);
  Eventq.add t.queue ~time ~kind:(kind_or_other kind) fn

let after t ?kind delay fn =
  if delay < 0 then invalid_arg "Engine.after: negative delay";
  Eventq.add t.queue ~time:(t.clock + delay) ~kind:(kind_or_other kind) fn

let cancel t h = Eventq.cancel t.queue h

(* Fire the earliest event; the queue must not be empty. *)
let fire t =
  let q = t.queue in
  t.clock <- Eventq.top_time q;
  match t.profile with
  | None -> Eventq.take q ()
  | Some p ->
      (* Arguments evaluate right to left: read the kind before [take]
         removes the event. *)
      let kind = Eventq.top_kind q in
      Profile.time p ~kind (Eventq.take q)

(* True iff the earliest event is due by [limit]. *)
let due t limit =
  (not (Eventq.is_empty t.queue)) && Eventq.top_time t.queue <= limit

(* The one run loop: fire due events while fewer than [budget] have fired;
   returns the count. *)
let rec drain t ~limit ~budget n =
  if n < budget && due t limit then begin
    fire t;
    drain t ~limit ~budget (n + 1)
  end
  else n

(* Callbacks run only inside [step] and [run_bounded]; both set
   [running] for their extent and restore it however they end (a
   callback may run its own engine). *)
let step t =
  if Eventq.is_empty t.queue then false
  else begin
    let was = t.running in
    t.running <- true;
    (match fire t with
    | () -> t.running <- was
    | exception e ->
        t.running <- was;
        raise e);
    true
  end

let run_bounded ?until ~max_events t =
  let limit = match until with Some l -> l | None -> max_int in
  let was = t.running in
  t.running <- true;
  let n =
    match drain t ~limit ~budget:max_events 0 with
    | n ->
        t.running <- was;
        n
    | exception e ->
        t.running <- was;
        raise e
  in
  if due t limit then `Exhausted n
  else begin
    (match until with
    | Some limit when t.clock < limit -> t.clock <- limit
    | Some _ | None -> ());
    `Quiescent n
  end

let run ?until t = ignore (run_bounded ?until ~max_events:max_int t)

let pending t = Eventq.live_count t.queue
