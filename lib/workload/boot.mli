(** The boot-storm rig: N diskless workstations multicast-loading one
    kernel image from a single boot server, across a gatewayed
    internetwork.

    The paper's central deployment claim (Sections 1, 6) is that diskless
    workstations are practical because the network file server can feed
    many of them at once; the worst case is the morning boot storm, when
    every workstation wants the same image simultaneously.  This rig
    measures that case under the reproduction's cost model: the server
    multicasts the image page by page (one transmission serves every
    client on the segment, and one gateway re-broadcast serves each
    further segment), then repairs losses with NACK-driven re-multicast
    rounds until every client holds every page.

    The protocol is frame-level (a boot ROM, not a kernel) on
    {!Vnet.Frame.ethertype_boot}: JOIN (client requests the image), PAGE
    (one image page, broadcast, tagged with a round number so gateway
    duplicate suppression never eats a legitimate retransmission), END
    (round over, with a bitmap of the clients whose DONE the server has
    heard), STATUS (the client's missing count and missing pages as
    ranges; nothing missing is a DONE).  The server paces PAGEs at the
    gateway's forwarding time onto the slowest segment, so one round
    delivers the image unless frames are really lost.  A client answers
    each END that does not acknowledge it, at a random offset drawn from
    the engine's generator.

    Everything is deterministic: same seed, same report.  See
    doc/INTERNETWORK.md. *)

val default_max_events : int

type config = {
  pages : int;  (** image size in pages *)
  page_bytes : int;  (** page payload bytes *)
  max_rounds : int;
      (** give up after this many consecutive rounds that taught the
          server nothing (no new DONE, no shorter missing set) *)
}

val default_config : config
(** 128 pages x 512 bytes (a 64 KB image), 16 idle rounds.  Server and
    clients cost {!Vhw.Cost_model.sun_10mhz}. *)

type report = {
  completed : bool;  (** every client's DONE was acknowledged *)
  clients : int;
  pages : int;
  page_bytes : int;
  rounds : int;  (** multicast rounds used *)
  joins : int;  (** JOIN frames the server heard *)
  statuses : int;  (** STATUS frames the server heard *)
  acked : int;  (** clients whose DONE the server acknowledged *)
  resent_pages : int;  (** pages re-multicast beyond round 1 *)
  elapsed_ns : int;  (** power-on to last client done *)
  server_cpu_ns : int;
  wire_bytes : int;  (** payload bytes successfully on any wire *)
  events : int;
  per_client_pages : int array;  (** pages held per client at the end *)
  gateway : Vnet.Gateway.stats;
  media : Vnet.Medium.stats list;  (** per segment, in order *)
}

val default_segments : clients:int -> Topology.segment_spec list
(** The paper's installation shape: a 10 Mb segment (with the boot
    server) and a 3 Mb segment, the clients split evenly. *)

val validate :
  config -> segments:Topology.segment_spec list -> (unit, string) result
(** Why {!run} would reject [config] and [segments], if it would: fewer
    than two segments, a client count outside 1..200, a page count
    outside 1..65535, or a page under 1 byte or too large for its PAGE
    frame (6 header bytes plus the page) to fit
    {!Vnet.Medium.max_payload}. *)

val run :
  ?seed:int64 ->
  ?config:config ->
  ?max_events:int ->
  ?faults:Vnet.Fault.t list ->
  segments:Topology.segment_spec list ->
  unit ->
  report
(** One boot storm.  [segments] needs at least two entries; [seg_hosts]
    is the number of diskless clients on that segment (1..200 total).
    The boot server always sits on segment 0.  [faults] go to the
    segments in order (fewer than the segments leave the rest clean);
    their host events crash and restart the gateway.  A storm that stops
    making progress quiesces rather than hangs: the run ends with
    [completed = false].  Raises [Invalid_argument] before simulating
    anything if {!validate} rejects the arguments or [faults] outnumber
    the segments. *)

val cost_per_1000_clients : report -> float * float
(** [(server CPU seconds, network bytes)] normalized per 1000 booting
    clients — the catalog cells CI gates on. *)
