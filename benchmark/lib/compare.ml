(* [vbench compare]: the pairwise rule for judging a change against its
   parent from repeated runs of both.

   For each workload and end-to-end metric: each side's median and
   quartiles over its runs, and the share of pairs (parent run i, change
   run i) the change wins, ties counting for neither.  The verdict:
   - unresolved: either side's spread (interquartile range) is wider than
     the bound, unless every change run reads better than every parent run;
   - regressed: the change's median is worse than the parent's by more
     than the bound;
   - improved: the change wins at least nine tenths of the pairs and its
     median beats the parent's by more than the parent's spread;
   - unchanged: otherwise. *)

type verdict = Unchanged | Improved | Regressed | Unresolved

let verdict_to_string = function
  | Unchanged -> "unchanged"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

let load file =
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Vobs.Json.parse text with
  | Ok doc -> (
      match Vobs.Json.member "runs" doc with
      | Some (List runs) -> runs
      | Some _ | None -> failwith (file ^ ": no \"runs\" list"))
  | Error e -> failwith (file ^ ": " ^ e)

let str = function Some (Vobs.Json.Str s) -> Some s | _ -> None

let num = function
  | Some (Vobs.Json.Float f) -> Some f
  | Some (Vobs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* The values of [metric] over the runs of [workload], in run order. *)
let values runs ~workload ~metric =
  List.filter_map
    (fun run ->
      if str (Vobs.Json.member "workload" run) <> Some workload then None
      else
        Option.bind (Vobs.Json.member "metrics" run) (fun ms ->
            Option.bind (Vobs.Json.member metric ms) (fun m ->
                num (Vobs.Json.member "value" m))))
    runs

type row = {
  workload : string;
  metric : Metric.t;
  parent : float list;
  change : float list;
  wins : int;
  pairs : int;
  verdict : verdict;
}

let judge (m : Metric.t) ~parent ~change =
  let better x y = match m.better with Metric.Higher -> x > y | Metric.Lower -> x < y in
  let pm = Stats.median parent and cm = Stats.median change in
  let slack = m.bound *. Float.abs pm in
  let iqr v = let q1, q3 = Stats.quartiles v in Float.abs (q3 -. q1) in
  let rec pairs a b =
    match (a, b) with x :: a', y :: b' -> (y, x) :: pairs a' b' | _ -> []
  in
  let ps = pairs parent change in
  let wins = List.length (List.filter (fun (c, p) -> better c p) ps) in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> better c p) parent) change in
  let worse_by = match m.better with Metric.Higher -> pm -. cm | Metric.Lower -> cm -. pm in
  let verdict =
    if Float.max (iqr parent) (iqr change) > slack && not all_better then Unresolved
    else if worse_by > slack then Regressed
    else if
      ps <> []
      && float_of_int wins >= 0.9 *. float_of_int (List.length ps)
      && -.worse_by > iqr parent
    then Improved
    else Unchanged
  in
  (wins, List.length ps, verdict)

let rows ~parent ~change =
  List.concat_map
    (fun (w : Workloads.t) ->
      List.filter_map
        (fun (m : Metric.t) ->
          let p = values parent ~workload:w.name ~metric:m.name in
          let c = values change ~workload:w.name ~metric:m.name in
          if p = [] || c = [] then None
          else
            let wins, pairs, verdict = judge m ~parent:p ~change:c in
            Some { workload = w.name; metric = m; parent = p; change = c; wins; pairs; verdict })
        Metric.end_to_end)
    Workloads.all

let pp_side fmt v =
  let q1, q3 = Stats.quartiles v in
  Format.fprintf fmt "%.6g [%.6g, %.6g]" (Stats.median v) q1 q3

let pp_rows fmt rows =
  Format.fprintf fmt "%-20s %-26s %-36s %-36s %-8s %s@." "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-20s %-26s %-36s %-36s %-8s %s (bound %g)@." r.workload
        r.metric.Metric.name
        (Format.asprintf "%a" pp_side r.parent)
        (Format.asprintf "%a" pp_side r.change)
        (Printf.sprintf "%d/%d" r.wins r.pairs)
        (verdict_to_string r.verdict) r.metric.Metric.bound)
    rows
