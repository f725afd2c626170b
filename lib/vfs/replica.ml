(* A standby file-server replica with name-based failover.

   The standby shares the primary's filesystem (the dual-ported-disk
   model: both hosts can reach the journaled disk, only one serves it)
   and probes the primary over IPC.  When the kernel's failure detector
   declares the primary dead — or enough consecutive probes exhaust
   their retransmissions — the standby runs [Fs.recover] (replaying the
   journal and breaking the dead incarnation's lock) and starts a server
   registered under the primary's logical id.  Clients notice nothing
   but a pause: their session recovery re-resolves the logical id via
   GetPid and lands on whichever host now serves it.  Acked writes
   survive because the journal they committed to is the one the standby
   recovers. *)

type t = {
  kernel : Vkernel.Kernel.t;
  fs : Fs.t;
  logical_id : int;
  server_config : Server.config;
  heartbeat_ns : int;
  mutable stopped : bool;
  mutable server : Server.t option;
  mutable probes : int;
  mutable misses : int;
}

(* Consecutive failed probes that trigger a takeover. *)
let miss_threshold = 2

let probe t =
  let k = t.kernel in
  match Vkernel.Kernel.get_pid k ~logical_id:t.logical_id Vkernel.Kernel.Any with
  | None -> Error `Miss
  | Some pid -> (
      let msg = Vkernel.Msg.create () in
      (* Any reply proves the server alive; a Stat on a handle we never
         opened is the cheapest request that produces one. *)
      Protocol.encode_request msg ~op:Protocol.Stat ~handle:0 ~block:0
        ~count:0;
      match Vkernel.Kernel.send k msg pid with
      | Vkernel.Kernel.Ok -> Ok ()
      | Vkernel.Kernel.Dead -> Error `Dead
      | _ ->
          Vkernel.Kernel.forget_pid k ~logical_id:t.logical_id;
          Error `Miss)

let take_over t =
  Fs.recover t.fs;
  let config = { t.server_config with Server.register_id = Some t.logical_id } in
  t.server <- Some (Server.start t.kernel t.fs ~config ())

let rec monitor t () =
  if not t.stopped then begin
    t.probes <- t.probes + 1;
    match probe t with
    | Ok () ->
        t.misses <- 0;
        Vsim.Proc.sleep t.heartbeat_ns;
        monitor t ()
    | Error `Dead ->
        (* The failure detector holds the primary's host suspect. *)
        take_over t
    | Error `Miss ->
        t.misses <- t.misses + 1;
        if t.misses >= miss_threshold then take_over t
        else begin
          Vsim.Proc.sleep t.heartbeat_ns;
          monitor t ()
        end
  end

let standby kernel fs ~logical_id ?(server_config = Server.default_config)
    ?(heartbeat_ns = Vsim.Time.ms 25) () =
  (* Takeover runs [Fs.recover] to enter a new epoch; without a journal
     there is none, and the standby's versions could repeat the
     primary's. *)
  if not (Fs.journaled fs) then
    invalid_arg "Replica.standby: the shared file system needs a journal";
  let t =
    {
      kernel;
      fs;
      logical_id;
      server_config;
      heartbeat_ns;
      stopped = false;
      server = None;
      probes = 0;
      misses = 0;
    }
  in
  let (_ : Vkernel.Pid.t) =
    Vkernel.Kernel.spawn kernel ~name:"fs-standby" (fun _ -> monitor t ())
  in
  t

let stop t = t.stopped <- true
let server t = t.server
let took_over t = Option.is_some t.server
let probes t = t.probes
