(** A store-and-forward internetwork gateway.

    The paper's V system spanned a 3 Mb and a 10 Mb Ethernet joined by
    gateway hosts.  This module bridges two or more {!Medium} segments
    transparently: frames are forwarded with their original source
    address, so interkernel addressing (and Mapped-mode learning) works
    unchanged across segments.

    - {b Unicast} frames are routed by a static host -> segment table
      ({!add_route}); a frame is forwarded only when its destination
      lives on a different segment than the one it arrived on, and
      silently ignored when it is local traffic.  Unrouted destinations
      are dropped and counted.
    - {b Broadcast} frames (GetPid, boot multicast) are re-broadcast
      onto every other segment with duplicate suppression: a bounded
      window of recently seen frame identities (source, ethertype and
      payload bytes) ensures each distinct broadcast crosses each
      segment at most once even with multiple gateways — and keeps the
      gateway from forwarding its own re-broadcasts in a loop.  The
      window is hashed by {!Frame.payload_hash}, computed once per frame,
      and a hash match is confirmed byte for byte, so a hash collision
      never suppresses a different broadcast.  The gateway forwards the
      frame it heard, so its own re-broadcast's echo costs a table
      lookup.
    - {b Store-and-forward}: each forwarded frame first pays a per-frame
      CPU cost derived from the {!Vhw.Cost_model} (receive handling +
      copy + send setup), then queues on a bounded per-segment output
      queue; overflow is dropped and accounted in {!stats}.
    - {b Crash/restart}: a down gateway hears frames but forwards
      nothing; queued frames are lost at the instant of the crash.
      Wire these to scripted {!Fault.host_event}s via
      {!Medium.set_host_handler} to sweep gateway-outage schedules. *)

type config = {
  queue_capacity : int;  (** bounded output queue, per segment *)
  fixed_ns : int;  (** per-frame store-and-forward CPU *)
  per_byte_ns : int;  (** per-byte copy cost through the gateway *)
}

val default_config : config
(** Forwarding costs from {!Vhw.Cost_model.sun_10mhz}: [fixed_ns] is
    packet receive handling plus send setup; [per_byte_ns] is the NIC
    copy cost.  The output queues hold 16 frames. *)

type t

val create : ?config:config -> Vsim.Engine.t -> addr:Addr.t -> Medium.t list -> t
(** Attach a gateway (as a promiscuous tap, see {!Medium.attach_tap})
    to each of the given segments.  [addr] is the gateway's own station
    address; it must be distinct from every host on every bridged
    segment.  At least two segments are required. *)

val addr : t -> Addr.t

val add_route : t -> host:Addr.t -> segment:int -> unit
(** Declare that station [host] lives on [segment] (an index into the
    segment list given to {!create}). *)

val crash : t -> unit
(** Take the gateway down: queued frames are dropped (accounted as
    [down_drops]) and nothing is forwarded until {!restart}. *)

val restart : t -> unit
val is_down : t -> bool

type stats = {
  received : int;  (** frames heard on any tap *)
  forwarded : int;  (** unicast frames re-transmitted *)
  rebroadcast : int;  (** broadcast copies re-transmitted *)
  queue_drops : int;  (** lost to output-queue overflow *)
  unrouted : int;  (** unicast with no route entry *)
  suppressed : int;  (** duplicate broadcasts not re-forwarded *)
  crc_drops : int;  (** corrupted frames refused at the bridge *)
  down_drops : int;  (** lost because the gateway was down *)
}

val stats : t -> stats
