(** Engine-scoped structured tracing.

    Tracers are attached to a specific {!Engine.t}, so two engines in one
    process keep fully independent observability state.  Emission sites
    guard with {!tracing} and then call {!event} with a typed {!Event.t}:

    {[
      if Trace.tracing eng then
        Trace.event eng (Event.Packet_drop { host; reason = "crc"; bytes })
    ]}

    The cost when no tracer is attached is a single branch.

    The pre-structured process-global string sink ([set_sink]) is gone:
    all consumption goes through typed {!Event.t} tracers.  For quick
    debugging output use {!to_stderr}, which is just an ordinary tracer. *)

val tracing : Engine.t -> bool
(** [true] iff this engine has a tracer attached.  Guard event
    construction with this. *)

val event : Engine.t -> Event.t -> unit
(** Deliver a typed event, stamped with the engine's current time, to all
    attached tracers. *)

val attach : Engine.t -> (Time.t -> Event.t -> unit) -> unit
(** Attach a tracer to this engine; tracers run in attachment order. *)

val detach_all : Engine.t -> unit
(** Remove every tracer from this engine. *)

val to_stderr : Engine.t -> unit
(** Convenience: attach a tracer printing ["[<time>] <topic>: <event>"]
    lines on stderr. *)
