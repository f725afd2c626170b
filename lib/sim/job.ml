(* A pure description of one simulation cell: a label, built only when
   something reads it (a failure report), and a thunk that builds a
   fresh engine, runs it, and returns a result.  Jobs carry no engine
   and no shared state — everything a job touches it must create
   itself, which is what lets Pool run them on any domain in any order
   while each job stays byte-deterministic. *)

type 'a t = { label : string Lazy.t; run : unit -> 'a }

let v ?(label = lazy "job") run = { label; run }
let label t = Lazy.force t.label
let run t = t.run ()
let map f t = { label = t.label; run = (fun () -> f (t.run ())) }
