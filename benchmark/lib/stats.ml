(* Order statistics over the per-rep and per-run values the benchmark
   reports.  The quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), so the
   spreads printed here are the ones a reader recomputes from the JSON
   with the standard library. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort compare a;
  a

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [(q1, q3)] as [statistics.quantiles(values, n=4)] gives them; a single
   value is its own quartiles. *)
let quartiles values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)
