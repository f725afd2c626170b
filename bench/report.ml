(* The benchmark harness's two views of a result: the printed tables and
   notes for people, and the catalog cells (lib/obs/catalog.ml) for the
   regression gate.  An experiment states each table row once, as
   columns; [table] prints the rows and records one cell per row from
   the same columns.  See doc/BENCHMARKS.md. *)

module Cat = Vobs.Catalog

let printf = Format.printf

let section title = printf "@.== %s ==@.@." title

let note fmt = Format.kasprintf (fun s -> printf "%s@." s) fmt

(* ------------------------------------------------------------------ *)
(* Catalog cells                                                       *)

(* The running experiment's name: the [bench] of every cell it records. *)
let bench = ref ""

let recorded : Cat.cell list ref = ref []

let cells () = List.rev !recorded
let cell_count () = List.length !recorded

(* Record a cell of the running experiment.  [table] records the cells
   of table rows; call this only for a cell that has no row. *)
let record ~params metrics =
  recorded := Cat.cell ~bench:!bench ~params metrics :: !recorded

(* Metrics digests of grid jobs, in grid order (see Experiments.grid). *)
let job_digests : string list ref = ref []

let add_job_digests ds = job_digests := !job_digests @ ds

(* Run experiment [f] as [name] with a fresh metrics registry attached
   to every engine it creates on the main domain, then stamp a digest
   onto the catalog cells it recorded.  Engines created inside grid jobs
   are captured by per-job registries whichever domain the job runs on
   (Experiments.grid replaces the create hook for the job's duration)
   and reduced to per-job digests returned in grid order — so the
   stamped digest is a pure function of the experiment and seed,
   byte-identical for any --domains value.  Two runs of the same
   experiment at the same seed produce the same digest; a digest change
   flags that the run's full metric set shifted even where the headline
   numbers did not. *)
let run name f =
  let before = cell_count () in
  bench := name;
  job_digests := [];
  let reg = Vobs.Metrics.create () in
  let prev = Vsim.Engine.get_create_hook () in
  Vsim.Engine.with_create_hook
    (Some
       (fun eng ->
         Vobs.Metrics.attach reg eng;
         match prev with Some h -> h eng | None -> ()))
    f;
  let digest =
    Cat.digest_string
      (String.concat "|"
         (Vobs.Json.to_string (Vobs.Metrics.to_json reg) :: !job_digests))
  in
  let fresh = cell_count () - before in
  recorded :=
    List.mapi
      (fun i c -> if i < fresh then { c with Cat.digest = Some digest } else c)
      !recorded

(* ------------------------------------------------------------------ *)
(* Columns                                                             *)

(* How a column shows a value, and the catalog metric it makes of it. *)
type 'v kind = { show : 'v -> string; metric : 'v -> Cat.metric }

let kind show metric = { show; metric }

let ms =
  kind
    (fun ns -> Printf.sprintf "%.2f" (Vsim.Time.to_float_ms ns))
    (fun ns -> Cat.metric ~units:"ms" (Vsim.Time.to_float_ms ns))

let count =
  kind string_of_int (fun n -> Cat.metric ~units:"count" (float_of_int n))

(* One column of a table.  A row's cell is [None] when it is blank: it
   prints "-" and records nothing.  Otherwise it is the cell's text and,
   if the column records one, its named catalog metric.  [paper] holds
   the paper's figures for the column's non-blank cells, top to bottom
   ([] when the paper has none); they print beside the text as
   "sim (paper)", or in a column of their own headed [paper_header].
   A column without a [header] is recorded but not printed. *)
type 'r column = {
  header : string option;
  paper : float list;
  paper_header : string option;
  cell : 'r -> (string * (string * Cat.metric) option) option;
}

let text header f =
  { header = Some header; paper = []; paper_header = None;
    cell = (fun r -> Some (f r, None)) }

(* A column of [kind] values read from a row by [get], or [None] for a
   blank cell.  With [metric] each non-blank cell records that metric. *)
let col_opt ?metric ?(paper = []) ?paper_header header kind get =
  { header = Some header; paper; paper_header;
    cell =
      (fun r ->
        Option.map
          (fun v ->
            ( kind.show v,
              Option.map (fun name -> (name, kind.metric v)) metric ))
          (get r)) }

let col ?metric ?paper ?paper_header header kind get =
  col_opt ?metric ?paper ?paper_header header kind (fun r -> Some (get r))

(* A metric recorded in every row's cell but not printed. *)
let hidden name metric get =
  { header = None; paper = []; paper_header = None;
    cell = (fun r -> Some ("", Some (name, metric (get r)))) }

let rec transpose = function
  | [] | [] :: _ -> []
  | cols -> List.map List.hd cols :: transpose (List.map List.tl cols)

(* Print [rows] under [columns], aligned (the first column to the left,
   the rest to the right), and, given [params], record one catalog cell
   per row: the row's parameter point and its non-blank cells' metrics. *)
let table ?params columns rows =
  Option.iter
    (fun params ->
      List.iter
        (fun r ->
          record ~params:(params r)
            (List.filter_map (fun c -> Option.bind (c.cell r) snd) columns))
        rows)
    params;
  let mismatch () =
    invalid_arg "Report.table: one paper figure per non-blank cell"
  in
  (* The printed columns of [c], each its header over its cell texts. *)
  let printed c =
    let paper = ref c.paper in
    let cells =
      List.map
        (fun r ->
          match (c.cell r, !paper) with
          | None, _ -> ("-", None)
          | Some _, [] when c.paper <> [] -> mismatch ()
          | Some (text, _), [] -> (text, None)
          | Some (text, _), p :: rest ->
              paper := rest;
              (text, Some p))
        rows
    in
    if !paper <> [] then mismatch ();
    let texts f = List.map f cells in
    match (c.header, c.paper_header) with
    | None, _ -> []
    | Some h, None ->
        [ h
          :: texts (function
               | t, Some p -> Printf.sprintf "%s (%.2f)" t p
               | t, None -> t) ]
    | Some h, Some ph ->
        [ h :: texts fst;
          ph :: texts (fun (_, p) ->
              Option.fold ~none:"-" ~some:(Printf.sprintf "%g") p) ]
  in
  let printed = List.concat_map printed columns in
  let widths =
    List.map (List.fold_left (fun w s -> max w (String.length s)) 0) printed
  in
  let print_row row =
    List.iteri
      (fun c (w, cell) ->
        if c = 0 then printf "  %-*s" w cell else printf "  %*s" w cell)
      (List.combine widths row);
    printf "@."
  in
  match transpose printed with
  | [] -> ()
  | header :: rows ->
      print_row header;
      print_row (List.map (fun w -> String.make w '-') widths);
      List.iter print_row rows;
      printf "@."
