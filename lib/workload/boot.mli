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
    (round complete), STATUS (client reports done or a capped list of
    missing pages).  Client transmissions are staggered by client index
    to keep the storm from collapsing into CSMA backoff.

    Everything is deterministic: same seed, same report.  See
    doc/INTERNETWORK.md. *)

val default_max_events : int

type config = {
  pages : int;  (** image size in pages *)
  page_bytes : int;  (** page payload bytes *)
  stagger_ns : int;  (** per-client offset for JOIN/STATUS responses *)
  join_window_ns : int;  (** extra wait before round 1 starts *)
  status_window_slack_ns : int;  (** extra wait for STATUS after each END *)
  status_cap : int;  (** missing-page indices carried per STATUS *)
  max_rounds : int;  (** give up after this many rounds *)
  cpu_model : Vhw.Cost_model.t;
}

val default_config : config
(** 128 pages x 512 bytes (a 64 KB image), 100 us stagger, 16 rounds,
    {!Vhw.Cost_model.sun_10mhz}. *)

type report = {
  completed : bool;  (** every client reported the full image *)
  clients : int;
  pages : int;
  page_bytes : int;
  rounds : int;  (** multicast rounds used *)
  joins : int;  (** JOIN frames the server heard *)
  statuses : int;  (** STATUS frames the server heard *)
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
  segments:Topology.segment_spec list ->
  unit ->
  report
(** One boot storm.  [segments] needs at least two entries; [seg_hosts]
    is the number of diskless clients on that segment (1..200 total).
    The boot server always sits on segment 0.  A protocol stall (lost
    END with every client silent) quiesces rather than hangs: the run
    ends with [completed = false].  Raises [Invalid_argument] before
    simulating anything if {!validate} rejects the arguments. *)

val cost_per_1000_clients : report -> float * float
(** [(server CPU seconds, network bytes)] normalized per 1000 booting
    clients — the catalog cells CI gates on. *)
