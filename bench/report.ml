(* Table rendering for the benchmark harness. *)

let printf = Format.printf

let section title = printf "@.== %s ==@.@." title

let note fmt = Format.kasprintf (fun s -> printf "%s@." s) fmt

(* Render rows with aligned columns. *)
let table ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let print_row row =
    List.iteri
      (fun c cell ->
        let w = List.nth widths c in
        if c = 0 then printf "  %-*s" w cell else printf "  %*s" w cell)
      row;
    printf "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows;
  printf "@."

let ms ns = Printf.sprintf "%.2f" (Vsim.Time.to_float_ms ns)
let msf v = Printf.sprintf "%.2f" v
let paper v = Printf.sprintf "%.2f" v

(* "measured (paper X)" cell *)
let vs ~got ~paper:p = Printf.sprintf "%s (%s)" (ms got) (Printf.sprintf "%.2f" p)
let vsf ~got ~paper:p = Printf.sprintf "%.2f (%.2f)" got p
