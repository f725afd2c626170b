(** Span correlation: remote Send→Reply round trips as measured spans.

    Attach a correlator to an engine before running a workload; every
    remote IPC exchange (which includes every remote page read — a page
    read is one remote Send) becomes a {!span} split into contiguous
    segments at protocol milestones:

    - [client-send]: Send call to request packet on the client wire
      (kernel setup and NIC copy);
    - [net-request]: wire time plus receive-side processing charge;
    - [server-queue]: until the server process picks the message up;
    - [server-work]: until the server calls Reply;
    - [reply-send]: reply packet onto the server wire;
    - [net-reply]: wire time plus client receive processing;
    - [client-resume]: context switch back into the blocked client.

    Segment boundaries are event timestamps, so the durations sum
    {e exactly} to [t_close - t_open], which in turn is exactly the
    elapsed time the client observed for the Send — this is the paper's
    Table 5-1 network-penalty decomposition, measured live.

    The correlator re-emits [Span_open]/[Span_close] events through the
    trace stream, so file sinks attached to the same engine record spans
    inline. *)

type span = {
  kind : string;  (** currently always ["ipc"] *)
  pid : int;  (** client pid *)
  seq : int;  (** packet sequence number of the exchange *)
  host : int;  (** client host *)
  t_open : Vsim.Time.t;
  t_close : Vsim.Time.t;
  segments : (string * int) list;  (** (label, duration ns), in order *)
  status : string;  (** Send completion status, ["ok"] normally *)
}

type t

val attach : ?on_span:(span -> unit) -> Vsim.Engine.t -> t
(** Attach a correlator; [on_span] fires at each span completion. *)

val spans : t -> span list
(** Completed spans in completion order (deterministic). *)


val closed : t -> int
(** Total spans closed. *)

val open_count : t -> int
(** Spans currently open (opened but not yet closed). *)

val total_ns : span -> int
val segments_sum : span -> int
(** Always equal to {!total_ns} — the invariant tests assert. *)
