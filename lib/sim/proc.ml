type state = Runnable | Running | Blocked of string | Terminated

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
  mutable pstate : state;
  mutable killed : bool;
  mutable slot : slot;
  mutable waiters : (unit -> unit) list;
}

type Engine.fiber += Fiber of t

(* Raised into every parked fiber by [reap]; private, so no body can
   name it to catch it. *)
exception Reaped

type _ Effect.t +=
  | Suspend : string * (('a -> unit) -> unit) -> 'a Effect.t
  | Self : t Effect.t

(* Atomic so concurrent Pool domains can spawn processes without racing;
   pids stay deterministic per engine only when a single domain drives
   it, which is the Pool contract (each job owns its engine). *)
let counter = Atomic.make 0
let k_start = Eventq.Kind.intern "proc.start"
let k_sleep = Eventq.Kind.intern "proc.sleep"

let id t = t.pid
let name t = t.pname
let state t = t.pstate
let engine t = t.eng
let terminated t = t.pstate = Terminated
let pp fmt t = Format.fprintf fmt "proc#%d(%s)" t.pid t.pname

let finish proc =
  proc.pstate <- Terminated;
  let ws = proc.waiters in
  proc.waiters <- [];
  List.iter (fun w -> w ()) ws

(* A killed fiber never runs again: resume functions already handed out
   become no-ops, modeling a process that vanishes in a host crash.  Its
   parked continuation stays in the slot, not discontinued, until
   [reap]: unwinding it now would run [Fun.protect] finalizers of code
   that is supposed to have lost power mid-flight. *)
let kill proc = if proc.pstate <> Terminated then begin
    proc.killed <- true;
    finish proc
  end

let run_fiber proc fn =
  let open Effect.Deep in
  proc.pstate <- Running;
  match_with fn ()
    {
      retc = (fun () -> finish proc);
      exnc =
        (fun e ->
          finish proc;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend (reason, register) ->
              Some
                (fun (k : (a, _) continuation) ->
                  if proc.slot == Slot Reaping then
                    Fmt.invalid_arg
                      "Proc.reap: %s parked again after its teardown"
                      proc.pname;
                  proc.pstate <- Blocked reason;
                  let cell = Parked k in
                  proc.slot <- Slot cell;
                  (* Valid only while the slot holds this park's cell;
                     a wake-up that outlived a killed process (a disk
                     completion, a CPU grant...) is dropped. *)
                  let resume v =
                    if not proc.killed then
                      match cell with
                      | Parked k when proc.slot == Slot cell ->
                          proc.slot <- Slot Idle;
                          proc.pstate <- Running;
                          continue k v
                      | Parked _ | Idle | Reaping ->
                          Fmt.invalid_arg "Proc: double resume of %s" proc.pname
                  in
                  register resume)
          | Self -> Some (fun (k : (a, _) continuation) -> continue k proc)
          | _ -> None);
    }

let spawn eng ?(name = "proc") fn =
  let pid = 1 + Atomic.fetch_and_add counter 1 in
  let proc =
    {
      pid;
      pname = name;
      eng;
      pstate = Runnable;
      killed = false;
      slot = Slot Idle;
      waiters = [];
    }
  in
  Engine.add_fiber eng (Fiber proc);
  ignore
    (Engine.after eng ~kind:k_start 0 (fun () ->
         if not proc.killed then run_fiber proc fn));
  proc

let self () = Effect.perform Self
let suspend ~reason register = Effect.perform (Suspend (reason, register))

let sleep delay =
  let p = self () in
  suspend ~reason:"sleep" (fun resume ->
      ignore (Engine.after p.eng ~kind:k_sleep delay (fun () -> resume ())))

let join other =
  if not (terminated other) then
    suspend ~reason:"join" (fun resume ->
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
              match Effect.Deep.discontinue k Reaped with
              | () | (exception Reaped) -> p.slot <- Slot Idle)
          | Slot (Idle | Reaping) -> ());
          if not (terminated p) then finish p
      | _ -> ())
    fibers
