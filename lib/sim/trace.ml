(* Engine-scoped structured tracing.

   The hot-path guard is [tracing eng]: one list-emptiness check when
   tracing is off.  Emission sites are expected to guard event
   construction with it so an untraced run allocates nothing. *)

let tracing = Engine.traced

let event eng ev =
  let time = Engine.now eng in
  List.iter (fun f -> f time ev) (Engine.tracers eng)

let attach = Engine.add_tracer
let detach_all = Engine.clear_tracers

let to_stderr eng =
  attach eng (fun time ev ->
      Format.eprintf "[%a] %s: %a@." Time.pp time (Event.topic ev) Event.pp ev)
