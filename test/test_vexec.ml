(* The program-execution subsystem: assembler, VM, loader. *)

module K = Vkernel.Kernel
module Msg = Vkernel.Msg

module TB = Vworkload.Testbed

(* Run an assembled program in a fresh one-host world; return (outcome,
   console output). *)
let run_program ?config source =
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let img = Vexec.Asm.assemble_exn source in
  let out = ref None in
  let console = Buffer.create 64 in
  Util.run_as_process tb ~host:1 (fun _ ->
      out :=
        Some
          (Vexec.Vm.exec k ?config ~console:(Buffer.add_char console) img));
  match !out with
  | Some outcome -> (outcome, Buffer.contents console)
  | None -> Alcotest.fail "program did not run"

let check_exit ?config ~code source =
  match run_program ?config source with
  | Vexec.Vm.Exited c, _ when c = code -> ()
  | outcome, _ ->
      Alcotest.failf "expected exit(%d), got %a" code Vexec.Vm.pp_outcome
        outcome

let test_isa_roundtrip =
  Util.qtest "instruction encode/decode roundtrip"
    QCheck.(
      quad (int_bound 7) (int_bound 7) (int_bound 7)
        (int_range (-1000000) 1000000))
    (fun (a, b, c, imm) ->
      let instrs =
        [
          Vexec.Isa.Halt; Vexec.Isa.Loadi (a, imm); Vexec.Isa.Mov (a, b);
          Vexec.Isa.Add (a, b, c); Vexec.Isa.Div (a, b, c);
          Vexec.Isa.Ld (a, b, imm); Vexec.Isa.St (a, b, imm);
          Vexec.Isa.Jmp (abs imm); Vexec.Isa.Jz (a, abs imm);
          Vexec.Isa.Blt (a, b, abs imm); Vexec.Isa.Call (abs imm);
          Vexec.Isa.Ret; Vexec.Isa.Sys (abs imm land 0xFF);
        ]
      in
      List.for_all
        (fun i ->
          match Vexec.Isa.decode (Vexec.Isa.encode i) ~pos:0 with
          | Ok i' -> i = i'
          | Error _ -> false)
        instrs)

let test_image_roundtrip () =
  let img =
    {
      Vexec.Image.code = Bytes.concat Bytes.empty
        [ Vexec.Isa.encode Vexec.Isa.Halt ];
      data = Bytes.of_string "some initialized data";
      bss = 128;
      entry = 0;
    }
  in
  match Vexec.Image.of_bytes (Vexec.Image.to_bytes img) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok img' ->
      Alcotest.(check bytes) "code" img.Vexec.Image.code img'.Vexec.Image.code;
      Alcotest.(check bytes) "data" img.Vexec.Image.data img'.Vexec.Image.data;
      Alcotest.(check int) "bss" 128 img'.Vexec.Image.bss

let test_arithmetic () =
  check_exit ~code:42 {|
        loadi r1, 0
        loadi r2, 7
        loadi r3, 6
loop:   jz    r3, done
        add   r1, r1, r2
        loadi r4, 1
        sub   r3, r3, r4
        jmp   loop
done:   sys   0            ; exit(r1 = 42)
|}

let test_call_ret_fib () =
  (* Recursive fibonacci(10) = 55, exercising the stack. *)
  check_exit ~code:55
    {|
        .entry main
; fib(n): n in r1, result in r1; clobbers r2, r3
fib:    loadi r2, 2
        blt   r1, r2, base
        loadi r2, 1
        sub   r1, r1, r2       ; n-1
        sub   sp, sp, r2       ; poor man's push: make room (4 bytes)
        sub   sp, sp, r2
        sub   sp, sp, r2
        sub   sp, sp, r2
        st    [sp+0], r1       ; save n-1
        call  fib              ; r1 = fib(n-1)
        ld    r3, [sp+0]       ; r3 = n-1
        st    [sp+0], r1       ; save fib(n-1)
        loadi r2, 1
        sub   r1, r3, r2       ; n-2
        call  fib              ; r1 = fib(n-2)
        ld    r3, [sp+0]       ; fib(n-1)
        add   r1, r1, r3
        loadi r2, 4
        add   sp, sp, r2       ; pop
base:   ret
main:   loadi r1, 10
        call  fib
        sys   0
|}

let test_alu_semantics () =
  (* Bitwise and shift operations, plus 32-bit signed wraparound. *)
  check_exit ~code:1 {|
        loadi r1, 0x0F0F
        loadi r2, 0x00FF
        and   r3, r1, r2      ; 0x000F
        loadi r4, 0x000F
        xor   r5, r3, r4      ; 0
        jnz   r5, bad
        or    r5, r3, r2      ; 0x00FF
        loadi r4, 0x00FF
        xor   r5, r5, r4
        jnz   r5, bad
        loadi r4, 4
        shl   r5, r3, r4      ; 0xF0
        loadi r4, 0xF0
        xor   r5, r5, r4
        jnz   r5, bad
        loadi r4, 4
        shr   r5, r3, r4      ; 0
        jnz   r5, bad
        loadi r1, 1
        sys   0
bad:    loadi r1, 99
        sys   0
|};
  (* Signed comparison and wraparound: -1 < 1; INT32_MAX + 1 = INT32_MIN. *)
  check_exit ~code:1 {|
        loadi r1, -1
        loadi r2, 1
        blt   r1, r2, ok1
        jmp   bad
ok1:    loadi r1, 0x7FFFFFFF
        loadi r2, 1
        add   r3, r1, r2      ; wraps to INT32_MIN
        loadi r4, 0
        blt   r3, r4, ok2     ; negative after wraparound
        jmp   bad
ok2:    loadi r1, 1
        sys   0
bad:    loadi r1, 99
        sys   0
|}

let test_asm_literals () =
  (* Hex, char and escaped-char literals; comments containing ';'. *)
  check_exit ~code:97 {|
        loadi r1, 'a'        ; 'a' is 97; this comment has a ; in it
        loadi r2, 0x61
        xor   r3, r1, r2
        jnz   r3, bad
        loadi r4, '\n'
        loadi r5, 10
        xor   r3, r4, r5
        jnz   r3, bad
        sys   0              ; exit('a')
bad:    loadi r1, 1
        sys   0
|}

let test_data_and_strings () =
  (* Sum the bytes of a string from the data section. *)
  let outcome, console = run_program {|
        .entry main
msg:    .ascii "AB\n"
len:    .word 3
main:   loadi r1, @msg
        ld    r2, [r6+@len]   ; r6 = 0
        loadi r3, 0           ; sum
loop:   jz    r2, print
        ldb   r4, [r1+0]
        add   r3, r3, r4
        loadi r5, 1
        add   r1, r1, r5
        sub   r2, r2, r5
        jmp   loop
print:  ldb   r1, [r6+@msg]   ; print first char
        sys   1
        mov   r1, r3
        sys   0               ; exit(65+66+10 = 141)
|} in
  (match outcome with
  | Vexec.Vm.Exited 141 -> ()
  | o -> Alcotest.failf "got %a" Vexec.Vm.pp_outcome o);
  Alcotest.(check string) "console" "A" console

let test_console_hello () =
  let _, console = run_program {|
        .entry main
hello:  .ascii "hello\n"
        .word 0
main:   loadi r2, @hello
loop:   ldb   r1, [r2+0]
        jz    r1, done
        sys   1
        loadi r3, 1
        add   r2, r2, r3
        jmp   loop
done:   halt
|} in
  Alcotest.(check string) "console output" "hello\n" console

let test_bss () =
  check_exit ~code:7 {|
        .entry main
buf:    .bss 64
main:   loadi r1, @buf
        ld    r2, [r1+0]      ; bss reads zero
        jnz   r2, bad
        loadi r3, 7
        st    [r1+32], r3
        ld    r4, [r1+32]
        mov   r1, r4
        sys   0
bad:    loadi r1, 99
        sys   0
|}

let test_faults () =
  (match run_program {|
        loadi r1, 1
        loadi r2, 0
        div   r3, r1, r2
|} with
  | Vexec.Vm.Fault { reason; _ }, _ ->
      Alcotest.(check bool) "div fault" true
        (String.length reason > 0)
  | o, _ -> Alcotest.failf "expected fault, got %a" Vexec.Vm.pp_outcome o);
  (match run_program {|
        loadi r1, -100
        ld    r2, [r1+0]
|} with
  | Vexec.Vm.Fault _, _ -> ()
  | o, _ -> Alcotest.failf "expected fault, got %a" Vexec.Vm.pp_outcome o);
  match run_program {|
        jmp 4096
|} with
  | Vexec.Vm.Fault _, _ -> ()
  | o, _ -> Alcotest.failf "expected fault, got %a" Vexec.Vm.pp_outcome o

let test_fuel () =
  let config = { Vexec.Vm.default_config with Vexec.Vm.max_steps = 1000 } in
  match run_program ~config {|
loop:   jmp loop
|} with
  | Vexec.Vm.Out_of_fuel, _ -> ()
  | o, _ -> Alcotest.failf "expected out-of-fuel, got %a" Vexec.Vm.pp_outcome o

let test_cpu_charged () =
  (* Interpretation costs simulated processor time. *)
  let tb = Util.testbed ~hosts:1 () in
  let k = TB.kernel tb 1 in
  let img = Vexec.Asm.assemble_exn {|
        loadi r1, 1000
        loadi r2, 1
loop:   sub   r1, r1, r2
        jnz   r1, loop
        halt
|} in
  let cpu = (Vworkload.Testbed.host tb 1).Vworkload.Testbed.cpu in
  let busy0 = ref 0 and busy1 = ref 0 in
  Util.run_as_process tb ~host:1 (fun _ ->
      busy0 := Vhw.Cpu.busy_ns cpu;
      ignore (Vexec.Vm.exec k img);
      busy1 := Vhw.Cpu.busy_ns cpu);
  let spent = !busy1 - !busy0 in
  (* ~2003 instructions at 2 us each. *)
  Alcotest.(check bool) "cpu time charged" true
    (spent > Vsim.Time.ms 3 && spent < Vsim.Time.ms 6)

let test_asm_errors () =
  let bad = [
    "loadi r9, 1", "register";
    "jmp nowhere", "undefined";
    "bogus r1", "instruction";
    "x: .word 1\nx: .word 2", "duplicate";
    "add r1, r2", "three registers";
  ] in
  List.iter
    (fun (src, _hint) ->
      match Vexec.Asm.assemble src with
      | Ok _ -> Alcotest.failf "assembled bad source %S" src
      | Error e ->
          Alcotest.(check bool) "error mentions a line" true
            (String.length e > 6))
    bad

let test_syscall_ipc () =
  (* An interpreted program finds the echo server through GetPid and does
     a real remote message exchange. *)
  let tb = Util.testbed ~hosts:2 () in
  let k1 = TB.kernel tb 1 and k2 = TB.kernel tb 2 in
  let (_ : Vkernel.Pid.t) =
    K.spawn k1 ~name:"incr-server" (fun pid ->
        K.set_pid k1 ~logical_id:5 pid K.Any;
        let msg = Msg.create () in
        let rec loop () =
          let src = K.receive k1 msg in
          Msg.set_u8 msg 4 (Msg.get_u8 msg 4 + 1);
          ignore (K.reply k1 msg src);
          loop ()
        in
        loop ())
  in
  let img = Vexec.Asm.assemble_exn {|
        .entry main
msgbuf: .bss 32
main:   loadi r1, 5
        sys   6              ; get_pid(5) -> r1
        jz    r1, fail
        mov   r2, r1         ; server pid
        loadi r1, @msgbuf
        loadi r3, 41
        stb   [r1+4], r3     ; message byte 4 = 41
        sys   3              ; send(msgbuf, r2); r1 = status
        jnz   r1, fail
        loadi r1, @msgbuf
        ldb   r1, [r1+4]     ; reply byte 4 = 42
        sys   0
fail:   loadi r1, 255
        sys   0
|} in
  let outcome = ref None in
  let (_ : Vkernel.Pid.t) =
    K.spawn k2 ~name:"interp" (fun _ ->
        Vsim.Proc.sleep (Vsim.Time.ms 5);
        outcome := Some (Vexec.Vm.exec k2 img))
  in
  Vworkload.Testbed.run tb;
  match !outcome with
  | Some (Vexec.Vm.Exited 42) -> ()
  | Some o -> Alcotest.failf "got %a" Vexec.Vm.pp_outcome o
  | None -> Alcotest.fail "no outcome"

let test_loader_end_to_end () =
  (* Assemble a program, store its image on the file server, and run it
     on a diskless workstation via the two-read loading pattern. *)
  let img = Vexec.Asm.assemble_exn {|
        .entry main
text:   .ascii "ok\n"
        .word 0
main:   loadi r2, @text
loop:   ldb   r1, [r2+0]
        jz    r1, done
        sys   1
        loadi r3, 1
        add   r2, r2, r3
        jmp   loop
done:   loadi r1, 7
        sys   0
|} in
  let file = Vexec.Image.to_bytes img in
  let tb = Util.testbed ~hosts:2 () in
  let fs = Vworkload.Testbed.make_test_fs tb ~files:[] () in
  Vworkload.Testbed.run_proc tb ~name:"install" (fun () ->
      let inum = Result.get_ok (Vfs.Fs.create fs "ok.prog") in
      match Vfs.Fs.write fs ~inum ~pos:0 file with
      | Ok () -> ()
      | Error e -> Alcotest.failf "install: %s" (Vfs.Fs.error_to_string e));
  let (_ : Vfs.Server.t) = Vfs.Server.start (TB.kernel tb 1) fs () in
  let k2 = TB.kernel tb 2 in
  let console = Buffer.create 16 in
  let outcome = ref None in
  Util.run_as_process tb ~host:2 (fun _ ->
      let conn =
        match Vfs.Client.connect k2 () with
        | Ok c -> c
        | Error e -> Alcotest.failf "connect: %s" (Vfs.Client.error_to_string e)
      in
      match
        Vexec.Loader.load_and_run k2 ~conn ~name:"ok.prog"
          ~console:(Buffer.add_char console) ()
      with
      | Ok o -> outcome := Some o
      | Error e -> Alcotest.failf "loader: %s" (Vexec.Loader.error_to_string e));
  Alcotest.(check string) "console" "ok\n" (Buffer.contents console);
  match !outcome with
  | Some (Vexec.Vm.Exited 7) -> ()
  | Some o -> Alcotest.failf "got %a" Vexec.Vm.pp_outcome o
  | None -> Alcotest.fail "no outcome"

let test_loader_missing_and_garbage () =
  let tb = Util.testbed ~hosts:2 () in
  let fs = Vworkload.Testbed.make_test_fs tb ~files:[ ("junk", 2048) ] () in
  let (_ : Vfs.Server.t) = Vfs.Server.start (TB.kernel tb 1) fs () in
  let k2 = TB.kernel tb 2 in
  Util.run_as_process tb ~host:2 (fun _ ->
      let conn = Result.get_ok (Vfs.Client.connect k2 ()) in
      (match Vexec.Loader.load k2 ~conn ~name:"absent" with
      | Error (Vexec.Loader.Client _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Vexec.Loader.error_to_string e)
      | Ok _ -> Alcotest.fail "loaded a ghost");
      match Vexec.Loader.load k2 ~conn ~name:"junk" with
      | Error (Vexec.Loader.Bad_image _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Vexec.Loader.error_to_string e)
      | Ok _ -> Alcotest.fail "loaded garbage")

let suite =
  [
    test_isa_roundtrip;
    Alcotest.test_case "image roundtrip" `Quick test_image_roundtrip;
    Alcotest.test_case "arithmetic loop" `Quick test_arithmetic;
    Alcotest.test_case "ALU and signedness" `Quick test_alu_semantics;
    Alcotest.test_case "assembler literals" `Quick test_asm_literals;
    Alcotest.test_case "call/ret fibonacci" `Quick test_call_ret_fib;
    Alcotest.test_case "data and strings" `Quick test_data_and_strings;
    Alcotest.test_case "console hello" `Quick test_console_hello;
    Alcotest.test_case "bss" `Quick test_bss;
    Alcotest.test_case "faults" `Quick test_faults;
    Alcotest.test_case "fuel" `Quick test_fuel;
    Alcotest.test_case "cpu charged" `Quick test_cpu_charged;
    Alcotest.test_case "assembler errors" `Quick test_asm_errors;
    Alcotest.test_case "syscall IPC" `Quick test_syscall_ipc;
    Alcotest.test_case "loader end-to-end" `Quick test_loader_end_to_end;
    Alcotest.test_case "loader errors" `Quick test_loader_missing_and_garbage;
  ]
