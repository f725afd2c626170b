type fiber = ..

type t = {
  mutable clock : Time.t;
  queue : Eventq.t;
  rand : Rng.t;
  mutable tracers : (Time.t -> Event.t -> unit) list;
  mutable profile : Profile.t option;
  mutable fibers : fiber list;
  mutable running : bool;
  mutable current : int;
      (* id of the fiber running now, [no_fiber] in a plain callback *)
  mutable tail : int;
      (* who holds the tail of the event now firing: a fiber's id,
         [no_fiber] for the plain callback itself, [no_tail] for none *)
  mutable limit : Time.t;  (* the time the running drain stops at *)
  mutable left : int;
      (* events the running drain may fire after the one now firing;
         0 outside a drain, so [step] never advances in place *)
}

type handle = Eventq.handle

let default_seed = 0x5EED_CAFE_F00DL
let no_fiber = 0
let no_tail = -1

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
      tracers = []; profile = None; fibers = []; running = false;
      current = no_fiber; tail = no_tail; limit = max_int; left = 0 }
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
let current t = t.current
let set_current t id = t.current <- id

let mark_tail t id =
  t.tail <- (if t.current = no_fiber && t.tail = no_fiber then id else no_tail)

let hand_back t id ~resumer = if t.tail = id then t.tail <- resumer
let unmark_tail t id = if t.tail = id then t.tail <- no_tail
let drop_tail t = t.tail <- no_tail
let holds_tail t = t.tail = t.current
let retake_tail t = t.tail <- t.current

let now t = t.clock
let rng t = t.rand

let[@inline never] in_the_past t time =
  invalid_arg
    (Printf.sprintf "Engine.at: time %d is before now %d" time t.clock)

(* Inlined into each per-event scheduler, so scheduling is one call, to
   [Eventq.add]. *)
let[@inline] at_kind t ~kind time fn =
  if time < t.clock then in_the_past t time;
  Eventq.add t.queue ~time ~kind fn

let[@inline] after_kind t ~kind delay fn =
  if delay < 0 then invalid_arg "Engine.after: negative delay";
  Eventq.add t.queue ~time:(t.clock + delay) ~kind fn

let at t ?(kind = Eventq.Kind.other) time fn = at_kind t ~kind time fn
let after t ?(kind = Eventq.Kind.other) delay fn = after_kind t ~kind delay fn
let cancel t h = Eventq.cancel t.queue h

(* Run [fn], the callback [Eventq.take_due] just removed, which holds
   the tail of its event until it resumes a fiber. *)
let[@inline] fire t fn =
  let q = t.queue in
  t.clock <- Eventq.taken_time q;
  t.tail <- no_fiber;
  match t.profile with
  | None -> fn ()
  | Some p -> Profile.time p ~kind:(Eventq.taken_kind q) fn

(* An event at [time] scheduled now would be the next to fire: the
   running fiber or plain callback holds the tail of the event now
   firing, [time] is within the drain's limit and budget, and every
   pending event is strictly later (an equal-time one was added first,
   so fires first). *)
let next_is t time =
  t.tail = t.current && t.left > 0 && time <= t.limit
  && (Eventq.is_empty t.queue || time < Eventq.top_time t.queue)

let advance t ~kind time =
  t.clock <- time;
  t.left <- t.left - 1;
  match t.profile with
  | None -> ()
  | Some p -> Profile.in_place p ~kind

(* True iff the earliest event is due by [limit]. *)
let due t limit =
  (not (Eventq.is_empty t.queue)) && Eventq.top_time t.queue <= limit

(* The one run loop: fire due events while [left] allows. *)
let rec drain t =
  if t.left > 0 then begin
    let fn = Eventq.take_due t.queue ~limit:t.limit in
    if fn != Eventq.idle then begin
      t.left <- t.left - 1;
      fire t fn;
      drain t
    end
  end

(* Callbacks run only inside [step] and [run_bounded]; both set
   [running] for their extent, [run_bounded] sets [limit] and [left]
   too, and both restore what they set however they end (a callback
   may run its own engine).  A step leaves [left] at 0, so nothing it
   fires advances in place. *)
let step t =
  let fn = Eventq.take_due t.queue ~limit:max_int in
  if fn == Eventq.idle then false
  else begin
    let was = t.running in
    t.running <- true;
    (match fire t fn with
    | () -> t.running <- was
    | exception e ->
        t.running <- was;
        raise e);
    true
  end

let run_bounded ?until ~max_events t =
  let limit = match until with Some l -> l | None -> max_int in
  let was = t.running and was_limit = t.limit and was_left = t.left in
  t.running <- true;
  t.limit <- limit;
  t.left <- max_events;
  (match drain t with
  | () -> ()
  | exception e ->
      t.running <- was;
      t.limit <- was_limit;
      t.left <- was_left;
      raise e);
  let n = max_events - t.left in
  t.running <- was;
  t.limit <- was_limit;
  t.left <- was_left;
  if due t limit then `Exhausted n
  else begin
    (match until with
    | Some limit when t.clock < limit -> t.clock <- limit
    | Some _ | None -> ());
    `Quiescent n
  end

let run ?until t = ignore (run_bounded ?until ~max_events:max_int t)

let pending t = Eventq.live_count t.queue
