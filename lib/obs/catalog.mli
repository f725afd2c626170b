(** Benchmark result catalog: a versioned, one-JSON-line-per-cell record
    of every experiment's headline metrics, with load/save and an exact
    comparison against a stored baseline.

    Each {!cell} is one experiment cell: the bench name, its parameter
    point (loss rate, workers, clients, …), its metrics, and optionally a
    digest of the run's metrics registry.  Every metric is a pure
    function of the seed, so the comparison is exact.  See
    doc/BENCHMARKS.md for the workflow. *)

type better = Lower | Higher

type metric = {
  value : float;
  units : string;  (** e.g. "ms", "per_s", "count"; "" if unitless *)
  better : better;  (** which direction is an improvement *)
}

type cell = {
  bench : string;
  params : (string * Json.t) list;  (** sorted by key *)
  metrics : (string * metric) list;  (** sorted by name *)
  digest : string option;
}

type t

val version : int
(** Schema version stamped into (and checked out of) every line. *)

val metric : ?units:string -> ?better:better -> float -> metric
(** Defaults: unitless, [Lower] is better. *)

val cell :
  bench:string ->
  params:(string * Json.t) list ->
  ?digest:string ->
  (string * metric) list ->
  cell
(** Canonicalizes params and metrics by sorting on key. *)

val of_cells : cell list -> t

val key : cell -> string
(** Cell identity: bench name + canonical JSON of the parameter point. *)

val digest_string : string -> string
(** FNV-1a 64-bit hex digest; used on the metrics-registry JSON. *)

val to_line : cell -> string
val of_line : string -> (cell, string) result

val to_string : t -> string
(** JSON lines, one cell per line, trailing newline. *)

val of_string : string -> (t, string) result
(** Parses JSON lines, skipping blank ones.  A metric must carry
    ["better"]; an error names the physical line it occurred on. *)

val save : string -> t -> unit
val load : string -> (t, string) result

(** {1 Comparison} *)

type verdict = Pass | Improve | Regress

type mdiff = {
  m_name : string;
  m_base : float;
  m_cur : float;
  m_delta_pct : float;
  m_verdict : verdict;
}

type cdiff = {
  c_key : string;
  c_status : [ `Both of mdiff list * bool | `Missing | `New ];
}

type report = {
  diffs : cdiff list;
  pass : int;
  improve : int;
  regress : int;
  missing : int;
  fresh : int;
  digest_changes : int;
}

val compare : baseline:t -> current:t -> report
(** Diff [current] against [baseline] per cell and metric.  A metric
    passes when both sides print the same under the catalog's float
    rendering (12 significant digits); any other difference is an
    improvement or a regression by its [better].  A metric present on
    only one side of a shared cell is a regression; a baseline cell
    absent from [current] is [`Missing]; a new cell is [`New] (not
    gating).  Digest changes are counted but do not gate. *)

val report_ok : report -> bool
(** [true] iff no regressions and no missing cells. *)

val pp_report : Format.formatter -> report -> unit
(** Non-pass metric lines, missing/new cells, summary counts, verdict. *)
