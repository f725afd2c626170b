type segment_spec = { medium_config : Vnet.Medium.config; seg_hosts : int }

type t = {
  eng : Vsim.Engine.t;
  media : Vnet.Medium.t array;
  gateway : Vnet.Gateway.t;
  hosts : Testbed.host array;
}

let gateway_addr = 254

let create ?seed ?(cpu_model = Vhw.Cost_model.sun_10mhz)
    ?(kernel_config = Vkernel.Kernel.default_config) ?gateway_config
    ~segments () =
  (match segments with
  | _ :: _ :: _ -> ()
  | _ -> invalid_arg "Topology.create: need at least two segments");
  let total = List.fold_left (fun n s -> n + s.seg_hosts) 0 segments in
  if total < 1 || total > 250 then
    invalid_arg "Topology.create: bad total host count";
  let eng = Vsim.Engine.create ?seed () in
  let media =
    Array.of_list
      (List.map (fun s -> Vnet.Medium.create eng s.medium_config) segments)
  in
  let segment_of = Array.make total 0 in
  let hosts = Array.make total None in
  let next = ref 0 in
  List.iteri
    (fun seg s ->
      for _ = 1 to s.seg_hosts do
        let i = !next in
        incr next;
        let addr = i + 1 in
        let medium = media.(seg) in
        let cpu =
          Vhw.Cpu.create eng ~host:addr ~model:cpu_model
            ~name:(Printf.sprintf "cpu%d" addr)
        in
        let nic = Vnet.Nic.create eng ~cpu ~medium ~addr in
        let kernel =
          Vkernel.Kernel.create eng ~cpu ~nic ~host:addr
            ~config:kernel_config ()
        in
        segment_of.(i) <- seg;
        hosts.(i) <- Some { Testbed.addr; cpu; nic; kernel }
      done)
    segments;
  let gateway =
    Vnet.Gateway.create ?config:gateway_config eng ~addr:gateway_addr
      (Array.to_list media)
  in
  Array.iteri
    (fun i seg -> Vnet.Gateway.add_route gateway ~host:(i + 1) ~segment:seg)
    segment_of;
  { eng; media; gateway; hosts = Array.map Option.get hosts }

let host t i =
  if i < 1 || i > Array.length t.hosts then
    Fmt.invalid_arg "Topology.host: no host %d" i;
  t.hosts.(i - 1)

let kernel t i = (host t i).Testbed.kernel

let medium t seg =
  if seg < 0 || seg >= Array.length t.media then
    Fmt.invalid_arg "Topology.medium: no segment %d" seg;
  t.media.(seg)

let run ?until t = Vsim.Engine.run ?until t.eng

let run_proc t ?(name = "setup") f =
  let (_ : Vsim.Proc.t) = Vsim.Proc.spawn t.eng ~name f in
  Vsim.Engine.run t.eng

(* "3mb:2,10mb:4" -> two segments, two hosts on the 3 Mb net and four on
   the 10 Mb one.  The syntax doc/INTERNETWORK.md documents. *)
let spec_of_string s =
  let parse_one part =
    match String.split_on_char ':' (String.trim part) with
    | [ net; n ] -> (
        let medium_config =
          match String.lowercase_ascii net with
          | "3mb" -> Some Vnet.Medium.config_3mb
          | "10mb" -> Some Vnet.Medium.config_10mb
          | _ -> None
        in
        match (medium_config, int_of_string_opt n) with
        | Some medium_config, Some k when k >= 0 ->
            Ok { medium_config; seg_hosts = k }
        | _ -> Error (Printf.sprintf "bad segment %S" part))
    | _ -> Error (Printf.sprintf "bad segment %S (want NET:HOSTS)" part)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match parse_one p with
        | Ok spec -> go (spec :: acc) rest
        | Error e -> Error e)
  in
  match String.split_on_char ',' s with
  | [] | [ "" ] -> Error "empty topology"
  | parts -> (
      match go [] parts with
      | Ok specs when List.length specs >= 2 -> Ok specs
      | Ok _ -> Error "need at least two segments (e.g. 3mb:2,10mb:4)"
      | Error e -> Error e)

let make_fs t ~host ?(latency = Vfs.Disk.Fixed 0) ?(blocks = 16384)
    ?(journal_blocks = 0) ~files () =
  Mkfs.make t.eng ~host ~latency ~blocks ~journal_blocks ~files
