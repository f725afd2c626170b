(** JSON-lines trace sink.

    Each event becomes one line:
    [{"ts":<ns>,"run":<k>,"topic":...,"name":...,"host":...,"args":{...}}]
    with a fixed field order, so identically seeded runs produce
    byte-identical files. *)

val wanted : string list -> Vsim.Event.t -> bool
(** Topic filter shared by the sinks: empty list accepts everything. *)

val attach :
  ?topics:string list -> ?run:int -> Vsim.Engine.t -> (string -> unit) -> unit
(** Attach a sink writing one line (plus ["\n"]) per event through the
    given writer.  [topics] filters by {!Vsim.Event.topic} (empty = all);
    [run] tags every line, letting one file hold several engine runs. *)
