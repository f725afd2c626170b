module K = Vkernel.Kernel

type outcome = Exited of int | Fault of { pc : int; reason : string } | Out_of_fuel

let pp_outcome fmt = function
  | Exited code -> Format.fprintf fmt "exited(%d)" code
  | Fault { pc; reason } -> Format.fprintf fmt "fault@%d: %s" pc reason
  | Out_of_fuel -> Format.pp_print_string fmt "out of fuel"

type config = { ns_per_instr : int; max_steps : int }

let default_config = { ns_per_instr = 2_000; max_steps = 1_000_000 }

(* 32-bit signed wraparound. *)
let norm v = ((v land 0xFFFF_FFFF) lxor 0x8000_0000) - 0x8000_0000

let install k (img : Image.t) =
  let mem = K.my_memory k in
  Vkernel.Mem.write mem ~pos:Image.load_base img.Image.code;
  Vkernel.Mem.write mem ~pos:(Image.data_base img) img.Image.data;
  if img.Image.bss > 0 then
    Vkernel.Mem.fill mem ~pos:(Image.bss_base img) ~len:img.Image.bss '\000'

exception Vm_fault of int * string

let run k ?(config = default_config) ?(console = ignore) ~entry ~code_len ()
    =
  let mem = K.my_memory k in
  let cpu = K.cpu k in
  let regs = Array.make 8 0 in
  regs.(7) <- Vkernel.Mem.size mem;
  let pc = ref entry in
  let steps = ref 0 in
  let pending_ns = ref 0 in
  let flush_cpu () =
    if !pending_ns > 0 then begin
      Vhw.Cpu.charge cpu !pending_ns;
      pending_ns := 0
    end
  in
  let fault reason = raise (Vm_fault (!pc, reason)) in
  let check_mem pos len what =
    if not (Vkernel.Mem.valid mem ~pos ~len) then
      fault (Printf.sprintf "%s at address %d" what pos)
  in
  let load32 pos =
    check_mem pos 4 "load";
    let b = Vkernel.Mem.read mem ~pos ~len:4 in
    norm (Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFF_FFFF)
  in
  let store32 pos v =
    check_mem pos 4 "store";
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int v);
    Vkernel.Mem.write mem ~pos b
  in
  let read_msg pos =
    check_mem pos Vkernel.Msg.length "message read";
    Vkernel.Mem.read mem ~pos ~len:Vkernel.Msg.length
  in
  let write_msg pos msg = Vkernel.Mem.write mem ~pos msg in
  let status_code : K.status -> int = function
    | K.Ok -> 0
    | K.Nonexistent -> 1
    | K.Bad_address -> 2
    | K.No_permission -> 3
    | K.Too_big -> 4
    | K.Retryable -> 5
    | K.Dead -> 6
  in
  let syscall n =
    (* Kernel calls must see the CPU time the program burned first. *)
    flush_cpu ();
    let open Isa.Syscall in
    if n = exit then Some (Exited regs.(1))
    else if n = put_char then begin
      console (Char.chr (regs.(1) land 0xFF));
      None
    end
    else if n = get_time then begin
      regs.(1) <- norm (int_of_float (Vsim.Time.to_float_ms (K.get_time k)));
      None
    end
    else if n = send then begin
      let ptr = regs.(1) in
      let msg = read_msg ptr in
      let st = K.send k msg (Vkernel.Pid.of_int (regs.(2) land 0xFFFF_FFFF)) in
      write_msg ptr msg;
      regs.(1) <- status_code st;
      None
    end
    else if n = receive then begin
      let ptr = regs.(1) in
      let msg = Vkernel.Msg.create () in
      check_mem ptr Vkernel.Msg.length "message buffer";
      let src = K.receive k msg in
      write_msg ptr msg;
      regs.(1) <- Vkernel.Pid.to_int src;
      None
    end
    else if n = reply then begin
      let msg = read_msg regs.(1) in
      let st = K.reply k msg (Vkernel.Pid.of_int (regs.(2) land 0xFFFF_FFFF)) in
      regs.(1) <- status_code st;
      None
    end
    else if n = get_pid then begin
      (match K.get_pid k ~logical_id:regs.(1) K.Any with
      | Some pid -> regs.(1) <- Vkernel.Pid.to_int pid
      | None -> regs.(1) <- 0);
      None
    end
    else if n = compute then begin
      Vhw.Cpu.charge cpu (Vsim.Time.us (max 0 regs.(1)));
      None
    end
    else fault (Printf.sprintf "bad syscall %d" n)
  in
  let code_bytes () =
    check_mem (Image.load_base + !pc) Isa.instr_bytes "fetch";
    Vkernel.Mem.read mem ~pos:(Image.load_base + !pc) ~len:Isa.instr_bytes
  in
  let rec step () =
    if !steps >= config.max_steps then begin
      flush_cpu ();
      Out_of_fuel
    end
    else begin
      incr steps;
      pending_ns := !pending_ns + config.ns_per_instr;
      (* Charge in batches to keep the event count sane. *)
      if !steps mod 256 = 0 then flush_cpu ();
      if !pc < 0 || !pc + Isa.instr_bytes > code_len || !pc mod 8 <> 0 then
        fault "program counter outside code"
      else
        match Isa.decode (code_bytes ()) ~pos:0 with
        | Error e -> fault e
        | Ok instr -> exec_instr instr
    end
  and exec_instr instr =
    let next = !pc + Isa.instr_bytes in
    let jump_to target =
      pc := target;
      step ()
    in
    let continue () = jump_to next in
    match instr with
    | Isa.Halt -> flush_cpu (); Exited 0
    | Isa.Loadi (r, imm) ->
        regs.(r) <- norm imm;
        continue ()
    | Isa.Mov (a, b) ->
        regs.(a) <- regs.(b);
        continue ()
    | Isa.Add (a, b, c) ->
        regs.(a) <- norm (regs.(b) + regs.(c));
        continue ()
    | Isa.Sub (a, b, c) ->
        regs.(a) <- norm (regs.(b) - regs.(c));
        continue ()
    | Isa.Mul (a, b, c) ->
        regs.(a) <- norm (regs.(b) * regs.(c));
        continue ()
    | Isa.Div (a, b, c) ->
        if regs.(c) = 0 then fault "division by zero"
        else begin
          regs.(a) <- norm (regs.(b) / regs.(c));
          continue ()
        end
    | Isa.And (a, b, c) ->
        regs.(a) <- norm (regs.(b) land regs.(c));
        continue ()
    | Isa.Or (a, b, c) ->
        regs.(a) <- norm (regs.(b) lor regs.(c));
        continue ()
    | Isa.Xor (a, b, c) ->
        regs.(a) <- norm (regs.(b) lxor regs.(c));
        continue ()
    | Isa.Shl (a, b, c) ->
        regs.(a) <- norm (regs.(b) lsl (regs.(c) land 31));
        continue ()
    | Isa.Shr (a, b, c) ->
        regs.(a) <- norm ((regs.(b) land 0xFFFF_FFFF) lsr (regs.(c) land 31));
        continue ()
    | Isa.Ld (a, b, imm) ->
        regs.(a) <- load32 (regs.(b) + imm);
        continue ()
    | Isa.St (a, b, imm) ->
        store32 (regs.(b) + imm) regs.(a);
        continue ()
    | Isa.Ldb (a, b, imm) ->
        let pos = regs.(b) + imm in
        check_mem pos 1 "load byte";
        regs.(a) <- Char.code (Bytes.get (Vkernel.Mem.read mem ~pos ~len:1) 0);
        continue ()
    | Isa.Stb (a, b, imm) ->
        let pos = regs.(b) + imm in
        check_mem pos 1 "store byte";
        Vkernel.Mem.write mem ~pos
          (Bytes.make 1 (Char.chr (regs.(a) land 0xFF)));
        continue ()
    | Isa.Jmp target -> jump_to target
    | Isa.Jz (r, target) -> if regs.(r) = 0 then jump_to target else continue ()
    | Isa.Jnz (r, target) ->
        if regs.(r) <> 0 then jump_to target else continue ()
    | Isa.Blt (a, b, target) ->
        if regs.(a) < regs.(b) then jump_to target else continue ()
    | Isa.Call target ->
        regs.(7) <- regs.(7) - 4;
        store32 regs.(7) next;
        jump_to target
    | Isa.Ret ->
        let target = load32 regs.(7) in
        regs.(7) <- regs.(7) + 4;
        jump_to target
    | Isa.Sys n -> (
        match syscall n with Some outcome -> outcome | None -> continue ())
  in
  try step () with
  | Vm_fault (pc, reason) -> Fault { pc; reason }
  | Invalid_argument reason -> Fault { pc = !pc; reason }

let exec k ?config ?console (img : Image.t) =
  install k img;
  run k ?config ?console ~entry:img.Image.entry
    ~code_len:(Bytes.length img.Image.code) ()
