type action =
  | Drop
  | Duplicate
  | Delay of int
  | Reorder

type host_event =
  | Crash
  | Restart of int

type t = {
  drop_prob : float;
  corrupt_prob : float;
  collision_bug : bool;
  bug_prob : float;
  actions : (int * action) list;
  host_events : (int * host_event) list;
}

let none =
  {
    drop_prob = 0.0;
    corrupt_prob = 0.0;
    collision_bug = false;
    bug_prob = 0.0;
    actions = [];
    host_events = [];
  }

let drop p = { none with drop_prob = p }
let corrupt p = { none with corrupt_prob = p }
let script actions = { none with actions }
let drop_nth frames = script (List.map (fun n -> (n, Drop)) frames)
let with_host_events t host_events = { t with host_events }
let hardware_bug = { none with collision_bug = true; bug_prob = 1.0 /. 2000.0 }

(* [List.assoc_opt] with an int key: the medium asks once per completed
   frame, and the polymorphic compare would be a C call per entry. *)
let rec find_int n = function
  | [] -> None
  | (k, v) :: rest -> if Int.equal k n then Some v else find_int n rest

let action_for t n = find_int n t.actions
let host_event_for t n = find_int n t.host_events

let action_to_string = function
  | Drop -> "drop"
  | Duplicate -> "dup"
  | Delay ns -> Printf.sprintf "delay+%dus" (ns / 1000)
  | Reorder -> "reorder"

let host_event_to_string = function
  | Crash -> "crash"
  | Restart ns -> Printf.sprintf "restart+%dus" (ns / 1000)

let pp fmt t =
  Format.fprintf fmt "fault{drop=%.4f corrupt=%.4f bug=%b/%.5f scripted=%d"
    t.drop_prob t.corrupt_prob t.collision_bug t.bug_prob
    (List.length t.actions);
  List.iter
    (fun (n, a) -> Format.fprintf fmt " %s@%d" (action_to_string a) n)
    t.actions;
  List.iter
    (fun (n, e) -> Format.fprintf fmt " %s@%d" (host_event_to_string e) n)
    t.host_events;
  Format.fprintf fmt "}"
