(** A pure, engine-free description of one simulation cell.

    A job is a label plus a closure that builds a fresh engine (with its
    own seed, metrics, and profile), runs the simulation, and returns a
    serializable result.  Jobs must not capture engines, RNGs, or other
    mutable simulation state from their creation site: everything a job
    needs it creates when run.  That contract is what lets {!Pool}
    execute jobs on worker domains while preserving per-job
    byte-determinism — a job's result depends only on its own inputs,
    never on which domain ran it or what ran before it.

    Sweep drivers ({!Vcheck.Checker.sweep}, the bench grids, the rig
    sweeps) describe each grid cell as a job and hand the list to
    {!Pool.run_list}. *)

type 'a t

val v : ?label:string Lazy.t -> (unit -> 'a) -> 'a t
(** [v ~label run] describes one cell.  [run] is executed at most once
    per {!Pool} run, on an arbitrary domain.  [label] is forced only
    when a job fails, so a sweep of thousands of cells formats none of
    them when every cell succeeds. *)

val label : 'a t -> string
(** The label, forced; call it from the domain that runs the {!Pool}. *)

val run : 'a t -> 'a
(** Execute the job in the calling domain. *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** Post-process a job's result (still inside the job, on the worker). *)
