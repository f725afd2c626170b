type host = {
  addr : Vnet.Addr.t;
  cpu : Vhw.Cpu.t;
  nic : Vnet.Nic.t;
  kernel : Vkernel.Kernel.t;
}

type t = {
  eng : Vsim.Engine.t;
  medium : Vnet.Medium.t;
  hosts : host array;
}

let create ?seed ?(medium_config = Vnet.Medium.config_3mb)
    ?(cpu_model = Vhw.Cost_model.sun_10mhz)
    ?(kernel_config = Vkernel.Kernel.default_config) ~hosts () =
  if hosts < 1 || hosts > 254 then invalid_arg "Testbed.create: bad host count";
  let eng = Vsim.Engine.create ?seed () in
  let medium = Vnet.Medium.create eng medium_config in
  let mk i =
    let addr = i + 1 in
    let cpu =
      Vhw.Cpu.create eng ~host:addr ~model:cpu_model
        ~name:("cpu" ^ Int.to_string addr)
    in
    let nic = Vnet.Nic.create eng ~cpu ~medium ~addr in
    let kernel =
      Vkernel.Kernel.create eng ~cpu ~nic ~host:addr ~config:kernel_config ()
    in
    { addr; cpu; nic; kernel }
  in
  { eng; medium; hosts = Array.init hosts mk }

let host t i =
  if i < 1 || i > Array.length t.hosts then
    Fmt.invalid_arg "Testbed.host: no host %d" i;
  t.hosts.(i - 1)

let kernel t i = (host t i).kernel
let cpu t i = (host t i).cpu
let nic t i = (host t i).nic

let run ?until t = Vsim.Engine.run ?until t.eng

let run_proc t ?(name = "setup") f =
  let (_ : Vsim.Proc.t) = Vsim.Proc.spawn t.eng ~name f in
  Vsim.Engine.run t.eng

let pattern_byte = Mkfs.pattern_byte

let make_test_fs t ?(host = 1) ?(latency = Vfs.Disk.Fixed 0) ?(blocks = 16384)
    ?(journal_blocks = 0) ~files () =
  Mkfs.make t.eng ~host ~latency ~blocks ~journal_blocks ~files
