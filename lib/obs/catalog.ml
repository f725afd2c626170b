(* The benchmark result catalog: one JSON line per experiment cell, a
   versioned schema, and an exact comparison against a stored baseline.
   This is the machine-checked perf trajectory of the repo:
   `bench all --json-out BENCH_<date>.json` writes a catalog, the file is
   committed, and `bench compare --baseline FILE` re-runs the grid and
   gates CI on per-cell regressions.

   Determinism contract: every metric is a simulated quantity or a count,
   a pure function of the seed, so a fresh run must print exactly what
   the baseline holds.  Host speed is not a catalog metric; it is gated
   by the repository benchmark (benchmark/). *)

type better = Lower | Higher

type metric = {
  value : float;
  units : string;
  better : better;
}

type cell = {
  bench : string;
  params : (string * Json.t) list;  (* canonicalized: sorted by key *)
  metrics : (string * metric) list;  (* canonicalized: sorted by name *)
  digest : string option;  (* digest of the run's metrics registry *)
}

type t = { cells : cell list }

let version = 1

let metric ?(units = "") ?(better = Lower) value = { value; units; better }

let sort_fields l = List.sort (fun (a, _) (b, _) -> compare a b) l

let cell ~bench ~params ?digest metrics =
  { bench; params = sort_fields params; metrics = sort_fields metrics;
    digest }

let of_cells cells = { cells }

(* Cell identity within a catalog: bench name plus the canonical JSON of
   its parameter point. *)
let key c =
  Printf.sprintf "%s %s" c.bench (Json.to_string (Json.Obj c.params))

(* FNV-1a 64-bit, hex — digests the metrics-registry JSON so a catalog
   line pins the full observable state of its run without embedding it. *)
let digest_string s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* ------------------------------------------------------------------ *)
(* Serialization: one JSON object per line                             *)

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let metric_to_json m =
  Json.Obj
    ([ ("value", Json.Float m.value) ]
    @ (if m.units = "" then [] else [ ("units", Json.Str m.units) ])
    @ [ ("better", Json.Str (better_to_string m.better)) ])

let cell_to_json c =
  Json.Obj
    ([ ("v", Json.Int version); ("bench", Json.Str c.bench);
       ("params", Json.Obj c.params);
       ( "metrics",
         Json.Obj (List.map (fun (n, m) -> (n, metric_to_json m)) c.metrics)
       ) ]
    @ match c.digest with
      | Some d -> [ ("digest", Json.Str d) ]
      | None -> [])

let to_line c = Json.to_string (cell_to_json c)

let metric_of_json j =
  let value =
    match Json.member "value" j with
    | Some (Json.Float f) -> Some f
    | Some (Json.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  match value with
  | None -> Error "metric missing numeric value"
  | Some v -> (
      let units =
        match Json.member "units" j with Some (Json.Str u) -> u | _ -> ""
      in
      match Json.member "better" j with
      | Some (Json.Str b) -> (
          match better_of_string b with
          | Some better -> Ok { value = v; units; better }
          | None -> Error (Printf.sprintf "unknown better %S" b))
      | _ -> Error "metric missing \"better\"")

let cell_of_json j =
  match Json.member "v" j with
  | Some (Json.Int v) when v = version -> (
      match (Json.member "bench" j, Json.member "params" j,
             Json.member "metrics" j)
      with
      | Some (Json.Str bench), Some (Json.Obj params),
        Some (Json.Obj metrics) -> (
          let rec conv acc = function
            | [] -> Ok (List.rev acc)
            | (n, mj) :: rest -> (
                match metric_of_json mj with
                | Ok m -> conv ((n, m) :: acc) rest
                | Error e ->
                    Error (Printf.sprintf "metric %s: %s" n e))
          in
          match conv [] metrics with
          | Error _ as e -> e
          | Ok metrics ->
              let digest =
                match Json.member "digest" j with
                | Some (Json.Str d) -> Some d
                | _ -> None
              in
              Ok (cell ~bench ~params ?digest metrics))
      | _ -> Error "cell missing bench/params/metrics")
  | Some (Json.Int v) ->
      Error (Printf.sprintf "unsupported catalog version %d (want %d)" v
               version)
  | _ -> Error "cell missing version field \"v\""

let of_line line =
  match Json.parse line with
  | Error e -> Error e
  | Ok j -> cell_of_json j

let to_string t = String.concat "" (List.map (fun c -> to_line c ^ "\n") t.cells)

(* Blank lines are skipped but still counted, so an error names the
   file's own line number. *)
let of_string s =
  let rec go acc i = function
    | [] -> Ok { cells = List.rev acc }
    | l :: rest when String.trim l = "" -> go acc (i + 1) rest
    | l :: rest -> (
        match of_line l with
        | Ok c -> go (c :: acc) (i + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" i e))
  in
  go [] 1 (String.split_on_char '\n' s)

let save path t =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string t))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------------ *)
(* Exact comparison                                                    *)

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
  c_status :
    [ `Both of mdiff list * bool (* digest_changed *)
    | `Missing  (* in baseline, absent from the current run *)
    | `New  (* in the current run, absent from baseline *) ];
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

let delta_pct ~base ~cur =
  let denom = if base = 0.0 then 1.0 else Float.abs base in
  100.0 *. (cur -. base) /. denom

(* Every metric is deterministic, so any change a catalog line can show
   is a real one: a metric passes when both sides print the same, and is
   otherwise an improvement or a regression by its [better]. *)
let metric_verdict ~(m : metric) ~base ~cur =
  let repr v = Json.to_string (Json.Float v) in
  if repr base = repr cur then Pass
  else
    match m.better with
    | Lower -> if cur < base then Improve else Regress
    | Higher -> if cur > base then Improve else Regress

(* Compare [current] against [baseline].  A metric present in only one
   side of a shared cell counts as a regression (the cell's shape
   changed under us).  Digest changes are counted but never gate. *)
let compare ~baseline ~current =
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace cur_tbl (key c) c) current.cells;
  let pass = ref 0 and improve = ref 0 and regress = ref 0 in
  let missing = ref 0 and fresh = ref 0 and digest_changes = ref 0 in
  let diff_cell (base_c : cell) (cur_c : cell) =
    let cur_metrics = cur_c.metrics in
    let diffs =
      List.map
        (fun (name, (bm : metric)) ->
          match List.assoc_opt name cur_metrics with
          | None ->
              incr regress;
              { m_name = name; m_base = bm.value; m_cur = nan;
                m_delta_pct = nan; m_verdict = Regress }
          | Some cm ->
              let v = metric_verdict ~m:bm ~base:bm.value ~cur:cm.value in
              (match v with
              | Pass -> incr pass
              | Improve -> incr improve
              | Regress -> incr regress);
              { m_name = name; m_base = bm.value; m_cur = cm.value;
                m_delta_pct = delta_pct ~base:bm.value ~cur:cm.value;
                m_verdict = v })
        base_c.metrics
    in
    let extra =
      List.filter_map
        (fun (name, (cm : metric)) ->
          if List.mem_assoc name base_c.metrics then None
          else begin
            incr regress;
            Some
              { m_name = name; m_base = nan; m_cur = cm.value;
                m_delta_pct = nan; m_verdict = Regress }
          end)
        cur_metrics
    in
    let digest_changed =
      match (base_c.digest, cur_c.digest) with
      | Some a, Some b when a <> b ->
          incr digest_changes;
          true
      | _ -> false
    in
    `Both (diffs @ extra, digest_changed)
  in
  let diffs =
    List.map
      (fun base_c ->
        let k = key base_c in
        match Hashtbl.find_opt cur_tbl k with
        | Some cur_c ->
            Hashtbl.remove cur_tbl k;
            { c_key = k; c_status = diff_cell base_c cur_c }
        | None ->
            incr missing;
            { c_key = k; c_status = `Missing })
      baseline.cells
  in
  let new_diffs =
    List.filter_map
      (fun cur_c ->
        let k = key cur_c in
        if Hashtbl.mem cur_tbl k then begin
          incr fresh;
          Some { c_key = k; c_status = `New }
        end
        else None)
      current.cells
  in
  {
    diffs = diffs @ new_diffs;
    pass = !pass;
    improve = !improve;
    regress = !regress;
    missing = !missing;
    fresh = !fresh;
    digest_changes = !digest_changes;
  }

(* The gate: regressions and missing cells fail; improvements and new
   cells do not. *)
let report_ok r = r.regress = 0 && r.missing = 0

let pp_verdict fmt = function
  | Pass -> Format.pp_print_string fmt "pass"
  | Improve -> Format.pp_print_string fmt "improve"
  | Regress -> Format.pp_print_string fmt "REGRESS"

let pp_report fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun cd ->
      match cd.c_status with
      | `Missing -> Format.fprintf fmt "MISSING %s@," cd.c_key
      | `New -> Format.fprintf fmt "new     %s@," cd.c_key
      | `Both (mds, digest_changed) ->
          List.iter
            (fun md ->
              if md.m_verdict <> Pass then
                Format.fprintf fmt "%a %s :: %s  %.12g -> %.12g (%+.3g%%)@,"
                  pp_verdict md.m_verdict cd.c_key md.m_name md.m_base
                  md.m_cur md.m_delta_pct)
            mds;
          if digest_changed then
            Format.fprintf fmt "digest  %s changed@," cd.c_key)
    r.diffs;
  Format.fprintf fmt
    "%d metrics pass, %d improve, %d regress; %d cells missing, %d new, \
     %d digest changes@,"
    r.pass r.improve r.regress r.missing r.fresh r.digest_changes;
  Format.fprintf fmt "verdict: %s@]"
    (if report_ok r then "OK" else "REGRESSION")
