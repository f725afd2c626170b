type action =
  | Net of Vnet.Fault.action
  | Crash
  | Restart of int

type entry = { frame : int; action : action }
type t = entry list

let to_fault s =
  let net =
    List.filter_map
      (fun e -> match e.action with Net a -> Some (e.frame, a) | _ -> None)
      s
  in
  let hosts =
    List.filter_map
      (fun e ->
        match e.action with
        | Crash -> Some (e.frame, Vnet.Fault.Crash)
        | Restart d -> Some (e.frame, Vnet.Fault.Restart d)
        | Net _ -> None)
      s
  in
  Vnet.Fault.with_host_events
    (Vnet.Fault.script net)
    hosts

let entry_to_string e =
  match e.action with
  | Net Vnet.Fault.Drop -> Printf.sprintf "drop@%d" e.frame
  | Net Vnet.Fault.Duplicate -> Printf.sprintf "dup@%d" e.frame
  | Net (Vnet.Fault.Delay ns) ->
      Printf.sprintf "delay@%d+%dus" e.frame (ns / 1000)
  | Net Vnet.Fault.Reorder -> Printf.sprintf "reorder@%d" e.frame
  | Crash -> Printf.sprintf "crash@%d" e.frame
  | Restart ns -> Printf.sprintf "restart@%d+%dus" e.frame (ns / 1000)

let to_string s = String.concat " " (List.map entry_to_string s)

let pp fmt s =
  if s = [] then Format.pp_print_string fmt "(empty)"
  else Format.pp_print_string fmt (to_string s)

let entry_of_string w =
  match String.index_opt w '@' with
  | None -> Error (Printf.sprintf "bad schedule entry %S: missing '@'" w)
  | Some i -> (
      let verb = String.sub w 0 i in
      let rest = String.sub w (i + 1) (String.length w - i - 1) in
      let frame_of str =
        match int_of_string_opt str with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (Printf.sprintf "bad frame number in %S" w)
      in
      (* frame'+'duration-in-us, as in [delay@5+15000us]. *)
      let frame_plus_us () =
        match String.index_opt rest '+' with
        | None -> Error (Printf.sprintf "bad entry %S: missing '+'" w)
        | Some j ->
            let frame_s = String.sub rest 0 j in
            let us_s = String.sub rest (j + 1) (String.length rest - j - 1) in
            let us_s =
              if Filename.check_suffix us_s "us" then
                Filename.chop_suffix us_s "us"
              else us_s
            in
            Result.bind (frame_of frame_s) (fun frame ->
                match int_of_string_opt us_s with
                | Some us when us > 0 -> Ok (frame, us * 1000)
                | _ -> Error (Printf.sprintf "bad duration in %S" w))
      in
      match verb with
      | "drop" ->
          Result.map (fun frame -> { frame; action = Net Vnet.Fault.Drop })
            (frame_of rest)
      | "dup" ->
          Result.map
            (fun frame -> { frame; action = Net Vnet.Fault.Duplicate })
            (frame_of rest)
      | "reorder" ->
          Result.map (fun frame -> { frame; action = Net Vnet.Fault.Reorder })
            (frame_of rest)
      | "delay" ->
          Result.map
            (fun (frame, ns) -> { frame; action = Net (Vnet.Fault.Delay ns) })
            (frame_plus_us ())
      | "crash" ->
          Result.map (fun frame -> { frame; action = Crash }) (frame_of rest)
      | "restart" ->
          Result.map
            (fun (frame, ns) -> { frame; action = Restart ns })
            (frame_plus_us ())
      | _ -> Error (Printf.sprintf "unknown schedule verb %S" verb))

let of_string str =
  let words =
    String.split_on_char '\n' str
    |> List.concat_map (fun line ->
           (* '#' starts a comment; blank lines are ignored. *)
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           String.split_on_char ' ' line)
    |> List.filter (fun w -> String.trim w <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | w :: ws -> (
        match entry_of_string (String.trim w) with
        | Ok e -> go (e :: acc) ws
        | Error _ as e -> e)
  in
  go [] words

let default_actions =
  Vnet.Fault.[ Drop; Duplicate; Delay (Vsim.Time.ms 15); Reorder ]

let default_restart_ns = Vsim.Time.ms 50

(* Systematic enumeration, lazily: every single-entry schedule over frames
   1..frames in (frame, action) lexicographic order, then every two-entry
   schedule with strictly increasing frame positions.  Deterministic and
   duplicate-free by construction. *)
let enumerate ~depth ~frames ~actions =
  let frame_seq = Seq.init frames (fun i -> i + 1) in
  let entries f =
    List.to_seq actions |> Seq.map (fun a -> { frame = f; action = Net a })
  in
  let depth1 =
    Seq.concat_map (fun f -> Seq.map (fun e -> [ e ]) (entries f)) frame_seq
  in
  let depth2 =
    Seq.concat_map
      (fun f1 ->
        Seq.concat_map
          (fun e1 ->
            Seq.concat_map
              (fun f2 ->
                if f2 <= f1 then Seq.empty
                else Seq.map (fun e2 -> [ e1; e2 ]) (entries f2))
              frame_seq)
          (entries f1))
      frame_seq
  in
  match depth with
  | 1 -> depth1
  | 2 -> Seq.append depth1 depth2
  | d -> invalid_arg (Printf.sprintf "Schedule.enumerate: depth %d not supported" d)

(* Host-event enumeration: depth 1 puts the host entry — a crash +
   restart, so recovery is exercised and the completion invariant stays
   meaningful, or a crash-stop, so completion needs a standby to take
   the dead host's service over — at every frame; depth 2 additionally
   pairs each such point with one network fault at every other frame.
   The fault may land before the crash (damaging the prefix whose
   effects recovery must reconstruct) or after it (stressing the
   re-connect path).  Entries are kept in increasing frame order so
   schedules print and replay canonically. *)
let enumerate_host ~host ~depth ~frames ~actions =
  let at f = { frame = f; action = host } in
  let frame_seq = Seq.init frames (fun i -> i + 1) in
  let depth1 = Seq.map (fun f -> [ at f ]) frame_seq in
  let depth2 =
    Seq.concat_map
      (fun f1 ->
        Seq.concat_map
          (fun f2 ->
            if f2 = f1 then Seq.empty
            else
              List.to_seq actions
              |> Seq.map (fun a ->
                     let e2 = { frame = f2; action = Net a } in
                     if f2 < f1 then [ e2; at f1 ] else [ at f1; e2 ]))
          frame_seq)
      frame_seq
  in
  match depth with
  | 1 -> depth1
  | 2 -> Seq.append depth1 depth2
  | d ->
      invalid_arg
        (Printf.sprintf "Schedule.enumerate_host: depth %d not supported" d)
