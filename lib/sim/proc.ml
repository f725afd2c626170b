(* What a process's continuation slot holds: nothing, the continuation
   of its current park, or the mark of a teardown under way. *)
type 'a cell =
  | Idle
  | Reaping
  | Parked of ('a, unit) Effect.Deep.continuation

(* Unboxed, so storing a cell in the slot allocates nothing. *)
type slot = Slot : 'a cell -> slot [@@unboxed]

type t = {
  pid : int;
  pname : string;
  eng : Engine.t;
  mutable terminated : bool;
  mutable killed : bool;
  mutable resumer : int;
      (* the engine's current fiber when this one last started or
         resumed, put back when it parks, returns or raises *)
  mutable slot : slot;
  mutable waiters : (unit -> unit) list;
}

type Engine.fiber += Fiber of t

(* Raised into every parked fiber by [reap]; private, so no body can
   name it to catch it. *)
exception Reaped

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Suspend_tail : (('a -> unit) -> unit) -> 'a Effect.t
  | Self : t Effect.t

(* Atomic so concurrent Pool domains can spawn processes without racing;
   pids stay deterministic per engine only when a single domain drives
   it, which is the Pool contract (each job owns its engine). *)
let counter = Atomic.make 0
let k_start = Eventq.Kind.intern "proc.start"
let k_sleep = Eventq.Kind.intern "proc.sleep"

let id t = t.pid
let name t = t.pname
let engine t = t.eng
let terminated t = t.terminated
let pp fmt t = Format.fprintf fmt "proc#%d(%s)" t.pid t.pname

let finish proc =
  proc.terminated <- true;
  let ws = proc.waiters in
  proc.waiters <- [];
  List.iter (fun w -> w ()) ws

(* A killed fiber never runs again: resume functions already handed out
   become no-ops, modeling a process that vanishes in a host crash.  Its
   parked continuation stays in the slot, not discontinued, until
   [reap]: unwinding it now would run [Fun.protect] finalizers of code
   that is supposed to have lost power mid-flight. *)
let kill proc = if not proc.terminated then begin
    proc.killed <- true;
    Engine.unmark_tail proc.eng proc.pid;
    finish proc
  end

(* Make [proc] the engine's running fiber, remembering the one it
   displaces. *)
let enter proc =
  proc.resumer <- Engine.current proc.eng;
  Engine.set_current proc.eng proc.pid

let leave proc = Engine.set_current proc.eng proc.resumer

(* Park [proc] in [k] and call [register] with its resume, a tail resume
   when [tail]. *)
let park proc tail register k =
  leave proc;
  if proc.slot == Slot Reaping then
    Fmt.invalid_arg "Proc.reap: %s parked again after its teardown"
      proc.pname;
  let cell = Parked k in
  proc.slot <- Slot cell;
  (* Valid only while the slot holds this park's cell; a wake-up that
     outlived a killed process (a disk completion, a CPU grant...) is
     dropped. *)
  let resume v =
    if not proc.killed then
      match cell with
      | Parked k when proc.slot == Slot cell ->
          proc.slot <- Slot Idle;
          if tail then Engine.mark_tail proc.eng proc.pid;
          enter proc;
          Effect.Deep.continue k v
      | Parked _ | Idle | Reaping ->
          Fmt.invalid_arg "Proc: double resume of %s" proc.pname
  in
  register resume

let run_fiber proc fn =
  let open Effect.Deep in
  (* Built once per fiber, so answering [Self] allocates nothing. *)
  let self = Some (fun (k : (t, unit) continuation) -> continue k proc) in
  enter proc;
  match_with fn ()
    {
      retc =
        (fun () ->
          leave proc;
          finish proc);
      exnc =
        (fun e ->
          leave proc;
          finish proc;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register -> Some (fun k -> park proc false register k)
          | Suspend_tail register -> Some (fun k -> park proc true register k)
          | Self -> self
          | _ -> None);
    }

let spawn eng ?(name = "proc") fn =
  let pid = 1 + Atomic.fetch_and_add counter 1 in
  let proc =
    {
      pid;
      pname = name;
      eng;
      terminated = false;
      killed = false;
      resumer = 0;
      slot = Slot Idle;
      waiters = [];
    }
  in
  Engine.add_fiber eng (Fiber proc);
  ignore
    (Engine.after_kind eng ~kind:k_start 0 (fun () ->
         if not proc.killed then run_fiber proc fn));
  proc

let self () = Effect.perform Self
let suspend register = Effect.perform (Suspend register)
let suspend_tail register = Effect.perform (Suspend_tail register)

let sleep delay =
  let p = self () in
  suspend (fun resume ->
      ignore
        (Engine.after_kind p.eng ~kind:k_sleep delay (fun () -> resume ())))

let join other =
  if not (terminated other) then
    suspend (fun resume ->
        other.waiters <- resume :: other.waiters)

(* Kill every process first, so that no finaliser below can wake one,
   then unwind each parked continuation, killed ones included, which
   gives its stack back to the runtime. *)
let reap eng =
  if Engine.running eng then
    invalid_arg "Proc.reap: called inside a running callback";
  let fibers = Engine.take_fibers eng in
  List.iter (function Fiber p -> p.killed <- true | _ -> ()) fibers;
  List.iter
    (function
      | Fiber p ->
          (match p.slot with
          | Slot (Parked k) -> (
              p.slot <- Slot Reaping;
              enter p;
              match Effect.Deep.discontinue k Reaped with
              | () | (exception Reaped) -> p.slot <- Slot Idle)
          | Slot (Idle | Reaping) -> ());
          if not (terminated p) then finish p
      | _ -> ())
    fibers
