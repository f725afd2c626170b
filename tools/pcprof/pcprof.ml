(* pcprof WORKLOAD SECONDS SEED SYMS MODIFY [PREFIX DISASM]: run a
   vbench workload's measured reps for SECONDS under a machine-code PC
   sampler and print the GC words each rep allocated, and where the
   host time went, by symbol and by OCaml module, and with PREFIX, by
   instruction inside the symbols whose names start with it.

   SYMS is [nm -n] of this executable and MODIFY its disassembly of
   [caml_modify] ([objdump -d --disassemble=caml_modify]); tools/pcprof.sh
   makes both.  A sample inside [caml_modify] is charged to the caller
   whose return address sits at the depth the function's prologue has
   pushed, so a write barrier books to the code that stored.  A sample
   outside this executable books to the file mapped there (libc, the
   vDSO).  DISASM is [objdump -d] of the symbols PREFIX matches, which
   gives each hot address its instruction; a sample lands on the
   instruction after the one that stalled it. *)

module V = Vbench_lib

external start : int -> unit = "pcprof_start"

external stop : unit -> nativeint * (nativeint * nativeint array) array
  = "pcprof_stop"

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let lines file =
  String.split_on_char '\n' (In_channel.with_open_text file In_channel.input_all)

let hex s = Int64.to_int (Int64.of_string ("0x" ^ s))

(* Text symbols, weak ones too ([caml_modify] is weak), by address. *)
let read_syms file =
  Array.of_list
    (List.filter_map
       (fun l ->
         match String.split_on_char ' ' l with
         | [ a; ("T" | "t" | "W" | "w"); name ] -> Some (hex a, name)
         | _ -> None)
       (lines file))

(* The symbol at or below [a], by bisection. *)
let symbol syms a =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fst syms.(mid) <= a then go mid hi else go lo mid
  in
  if Array.length syms = 0 || a < fst syms.(0) then None
  else Some (snd syms.(go 0 (Array.length syms)))

(* [(address, stack depth)] of each instruction of [caml_modify]: the
   words its prologue (up to the first branch) has pushed before it,
   less the pops that just preceded it on an exit path. *)
let modify_depths file =
  let insns =
    List.filter_map
      (fun l ->
        match String.split_on_char '\t' (String.trim l) with
        | addr :: rest when String.ends_with ~suffix:":" addr -> (
            let text = String.trim (String.concat " " rest) in
            let mnemonic = List.hd (String.split_on_char ' ' text) in
            match int_of_string_opt ("0x" ^ String.sub addr 0 (String.length addr - 1)) with
            | Some a when mnemonic <> "" -> Some (a, mnemonic, text)
            | Some _ | None -> None)
        | _ -> None)
      (lines file)
  in
  let pushed = ref 0 and prologue = ref true and pops = ref 0 in
  List.map
    (fun (a, m, text) ->
      let depth = !pushed - !pops in
      (if !prologue then begin
         if m = "push" then incr pushed
         else if m = "sub" && String.ends_with ~suffix:",%rsp" text then
           Scanf.sscanf text "sub $0x%x,%%rsp" (fun n -> pushed := !pushed + (n / 8))
         else if m.[0] = 'j' || m = "call" || m = "ret" then prologue := false
       end
       else if m = "pop" then incr pops
       else pops := 0);
      (a, depth))
    insns

(* The executable mappings of this process: (start, end, path). *)
let mappings () =
  List.filter_map
    (fun l ->
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | range :: perms :: _ :: _ :: _ :: rest when String.contains perms 'x' -> (
          let path = match rest with p :: _ -> p | [] -> "[anon]" in
          match String.split_on_char '-' range with
          | [ lo; hi ] -> Some (hex lo, hex hi, path)
          | _ -> None)
      | _ -> None)
    (lines "/proc/self/maps")

(* The OCaml module of a symbol ([camlVsim__Itbl.find_526] is
   [Vsim__Itbl]); a C symbol stands for itself. *)
let module_of sym =
  let n = String.length sym in
  if n > 4 && String.sub sym 0 4 = "caml" && sym.[4] >= 'A' && sym.[4] <= 'Z' then
    match String.index_opt sym '.' with
    | Some i -> String.sub sym 4 (i - 4)
    | None -> sym
  else if String.starts_with ~prefix:"[C]" sym then sym
  else "[C] " ^ sym

let print_table title total counts =
  let rows = List.rev (List.sort compare (Hashtbl.fold (fun k n acc -> (n, k) :: acc) counts [])) in
  Printf.printf "\n%-7s %6s  %s\n" "samples" "share" title;
  List.iteri
    (fun i (n, k) ->
      if i < 25 then Printf.printf "%7d %5.1f%%  %s\n" n (100. *. float n /. float total) k)
    rows

(* [address -> instruction] from an [objdump -d --no-show-raw-insn]
   listing. *)
let read_disasm file =
  let insns = Hashtbl.create 1024 in
  List.iter
    (fun l ->
      match String.index_opt l ':' with
      | Some i -> (
          match int_of_string_opt ("0x" ^ String.trim (String.sub l 0 i)) with
          | Some a ->
              Hashtbl.replace insns a
                (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
          | None -> ())
      | None -> ())
    (lines file);
  insns

(* The hottest instructions of the symbols [prefix] starts. *)
let print_insns syms prefix insns total pcs =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun pc ->
      match symbol syms pc with
      | Some s when String.starts_with ~prefix s ->
          Hashtbl.replace counts pc
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts pc))
      | Some _ | None -> ())
    pcs;
  let rows =
    List.sort compare (Hashtbl.fold (fun pc n acc -> (-n, pc) :: acc) counts [])
  in
  Printf.printf "\n%-7s %6s  %-8s %s\n" "samples" "share" "address"
    ("instruction in " ^ prefix ^ "*");
  List.iteri
    (fun i (n, pc) ->
      if i < 15 then
        Printf.printf "%7d %5.1f%%  %8x %s\n" (-n)
          (100. *. float (-n) /. float total)
          pc
          (Option.value ~default:"?" (Hashtbl.find_opt insns pc)))
    rows

let () =
  let usage = "usage: pcprof WORKLOAD SECONDS SEED SYMS MODIFY [PREFIX DISASM]" in
  match Array.to_list Sys.argv with
  | _ :: name :: seconds :: seed :: syms :: modify :: by_insn ->
      let w =
        match V.Workloads.find name with
        | Some w -> w
        | None -> fail "pcprof: no workload %s" name
      in
      let seconds = float_of_string seconds and seed = int_of_string seed in
      let by_insn =
        match by_insn with
        | [] -> None
        | [ prefix; disasm ] -> Some (prefix, read_disasm disasm)
        | _ -> fail "%s" usage
      in
      let syms = read_syms syms and depths = modify_depths modify in
      let modify_nm =
        match depths with (a, _) :: _ -> a | [] -> fail "pcprof: no caml_modify code"
      in
      let prepared = w.V.Workloads.prepare V.Workloads.Full ~seed in
      ignore (prepared None);
      let minor0, promoted0, major0 = Gc.counters () in
      let t0 = Unix.gettimeofday () in
      start 1000;
      let reps = ref 0 in
      while !reps = 0 || Unix.gettimeofday () -. t0 < seconds do
        ignore (prepared None);
        incr reps
      done;
      let modify_at, samples = stop () in
      let wall = Unix.gettimeofday () -. t0 in
      let minor1, promoted1, major1 = Gc.counters () in
      let maps = mappings () and exe = Unix.readlink "/proc/self/exe" in
      let modify_at = Nativeint.to_int modify_at in
      (* Zero when linked without PIE; the load base otherwise. *)
      let base = modify_at - modify_nm in
      let mapped pc = List.find_opt (fun (lo, hi, _) -> pc >= lo && pc < hi) maps in
      let where pc =
        match mapped pc with
        | Some (_, _, path) when path = exe ->
            Option.value ~default:"[unknown]" (symbol syms (pc - base))
        | Some (_, _, path) -> "[C] " ^ Filename.basename path
        | None -> "[unmapped]"
      in
      let by_sym = Hashtbl.create 64 and by_mod = Hashtbl.create 64 in
      let bump tbl k =
        Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      in
      Array.iter
        (fun (pc, stack) ->
          let pc = Nativeint.to_int pc in
          let sym, owner =
            match List.assoc_opt (pc - base) depths with
            | Some d when d < Array.length stack ->
                let caller = where (Nativeint.to_int stack.(d) - 1) in
                ("caml_modify <- " ^ caller, caller)
            | Some _ | None ->
                let s = where pc in
                (s, s)
          in
          bump by_sym sym;
          bump by_mod (module_of owner))
        samples;
      let n = Array.length samples in
      Printf.printf "pcprof: %s seed %d, %d reps in %.1f s, %d samples (%.0f/s)\n" name
        seed !reps wall n
        (float n /. wall);
      (* Direct-major words are blocks too big for the minor heap. *)
      let per_rep x = x /. float !reps in
      Printf.printf "pcprof: GC words per rep: %.0f minor, %.0f promoted, %.0f direct-major\n"
        (per_rep (minor1 -. minor0))
        (per_rep (promoted1 -. promoted0))
        (per_rep (major1 -. major0 -. (promoted1 -. promoted0)));
      if n > 0 then begin
        print_table "symbol (caml_modify booked to its caller)" n by_sym;
        print_table "module (a write barrier booked to its caller's)" n by_mod;
        match by_insn with
        | Some (prefix, insns) ->
            (* Addresses in this executable, as [nm] and [objdump] print
               them. *)
            let pcs =
              Array.fold_left
                (fun acc (pc, _) ->
                  let pc = Nativeint.to_int pc in
                  match mapped pc with
                  | Some (_, _, path) when path = exe -> (pc - base) :: acc
                  | Some _ | None -> acc)
                [] samples
            in
            print_insns syms prefix insns n pcs
        | None -> ()
      end
  | _ -> fail "%s" usage
