(** The workstation interpreter.

    Executes a loaded program image inside a V process: code and data
    live in the process's own address space, each instruction charges
    processor time, and the [sys] instruction maps onto the kernel
    primitives — an interpreted program can Send to a file server or any
    other V service exactly like native code.

    Must be called from within a process fiber of the given kernel. *)

type outcome =
  | Exited of int  (** the program called [sys exit] (or fell off a Halt: code 0) *)
  | Fault of { pc : int; reason : string }
      (** bad opcode, wild address, division by zero, stack abuse... *)
  | Out_of_fuel  (** exceeded [max_steps] *)

val pp_outcome : Format.formatter -> outcome -> unit

type config = {
  ns_per_instr : int;
      (** processor time per interpreted instruction (default 2 us — an
          interpreter on a ~10 MHz 68000) *)
  max_steps : int;  (** runaway bound (default 1,000,000) *)
}

val default_config : config

val run :
  Vkernel.Kernel.t ->
  ?config:config ->
  ?console:(char -> unit) ->
  entry:int ->
  code_len:int ->
  unit ->
  outcome
(** Interpret code already present at {!Image.load_base} (installed by
    {!exec} or by the {!Loader}).  The stack pointer starts at the top
    of the address space. *)

val exec :
  Vkernel.Kernel.t ->
  ?config:config ->
  ?console:(char -> unit) ->
  Image.t ->
  outcome
(** Copy the image's code and data to their load addresses in the
    calling process's space, zero the bss, then {!run} it. *)
