(** A specialized page-level file-access protocol (the WFS / LOCUS
    comparison point).

    The paper argues that the V IPC accesses remote files "at comparable
    cost to any well-tuned specialized file access protocol".  To measure
    that claim we implement the alternative: a problem-oriented protocol
    straight on the data-link layer, two packets per page — request out,
    data back — with none of the kernel's process, alien or grant
    machinery.  Per-packet interface costs still apply (they are hardware);
    the only software cost is a per-request handling time of 150 us (a
    well-tuned handler) at each end.

    This is the floor a specialized protocol could reach; the bench
    compares it against V page access and the raw network penalty. *)

type server

val start_server :
  Vsim.Engine.t -> nic:Vnet.Nic.t -> fs:Vfs.Fs.t -> server
(** Attach a WFS server to the NIC. *)

type client

val create_client :
  Vsim.Engine.t -> nic:Vnet.Nic.t -> server:Vnet.Addr.t ->
  ?timeout:Vsim.Time.t -> unit -> client
(** [timeout] (default 200 ms) is the wait before each of at most 5
    retransmissions. *)

val read_page :
  client -> inum:int -> block:int -> ?count:int -> unit ->
  (Bytes.t, string) result
(** Blocking (fiber). Two packets on the wire in the common case. *)

val write_page :
  client -> inum:int -> block:int -> Bytes.t -> (unit, string) result

val retransmissions : client -> int
