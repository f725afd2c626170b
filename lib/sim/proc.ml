type state = Runnable | Running | Blocked of string | Terminated

type t = {
  pid : int;
  pname : string;
  eng : Engine.t;
  mutable pstate : state;
  mutable killed : bool;
  mutable waiters : (unit -> unit) list;
}

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

(* A killed fiber never runs again: its parked continuation is abandoned
   (resume functions already handed out become no-ops), modeling a
   process that vanishes in a host crash.  The continuation itself is
   dropped, not discontinued — unwinding it would run [Fun.protect]
   finalizers of code that is supposed to have lost power mid-flight. *)
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
                  proc.pstate <- Blocked reason;
                  let resumed = ref false in
                  let resume v =
                    if proc.killed then ()
                      (* killed while blocked: the wake-up (a disk
                         completion, a CPU grant...) outlived the
                         process; drop it on the floor *)
                    else begin
                      if !resumed then
                        Fmt.invalid_arg "Proc: double resume of %s" proc.pname;
                      resumed := true;
                      proc.pstate <- Running;
                      continue k v
                    end
                  in
                  register resume)
          | Self -> Some (fun (k : (a, _) continuation) -> continue k proc)
          | _ -> None);
    }

let spawn eng ?(name = "proc") fn =
  let pid = 1 + Atomic.fetch_and_add counter 1 in
  let proc =
    { pid; pname = name; eng; pstate = Runnable; killed = false; waiters = [] }
  in
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
