(** The shared Ethernet bus.

    An event-driven CSMA/CD model:
    - a station transmits immediately if the medium is idle;
    - a transmission beginning within one 10 us slot of another's start
      collides with it (the collision window); both abort, jam the bus for
      3 us, and retry after binary-exponential backoff;
    - a station sensing carrier defers and retries when the medium frees
      (so two deferred stations genuinely collide when they both start).

    Wire time is [payload bytes x byte time]; framing overhead is folded
    into the per-packet CPU costs (see {!Frame}).  Delivery happens
    [latency_ns] after the last bit — the interface/propagation latency the
    paper's penalty intercept includes.

    The model deliberately omits nothing the paper's experiments depend on:
    idle-network behaviour is exact, utilization is metered for the
    Section 5.4 load experiments, and fault injection reproduces the 3 Mb
    interface's undetected-collision hardware bug. *)

type config = {
  name : string;
  bit_rate_bps : int;
  latency_ns : int;  (** interface + propagation latency, last-bit to rx *)
}

val max_payload : int
(** Largest frame, in bytes, that {!transmit} accepts on any segment
    (1536). *)

val config_3mb : config
(** The experimental 3 Mb Ethernet: 2.94 Mb/s. *)

val config_10mb : config
(** The standard 10 Mb Ethernet. *)

val byte_time_ns : config -> int
(** Wire time for one payload byte. *)

type t

val create : Vsim.Engine.t -> config -> t
val config : t -> config
val engine : t -> Vsim.Engine.t

(** {2 Stations}

    Each address holds at most one station, a port or a tap.  A medium
    finds a frame's stations by address, in an array as long as its
    highest attached address: per frame, one read for the source and
    one for the destination, never a hash probe.  The destination is
    the port at the frame's address; a tap's address, an address with
    nothing attached and one above the highest station name no port,
    so only the taps hear such a frame.  The source is whichever
    station sits at its address, or none for a frame bridged in from
    another segment.  Attaching a station grows the array to its
    address and makes the next frame rebuild the delivery order. *)

val attach : t -> addr:Addr.t -> rx:(Frame.t -> unit) -> unit
(** Connect a station. [rx] is invoked (in event context) when a frame
    addressed to [addr] — or broadcast — arrives, including corrupted
    frames (the NIC's CRC check is the receiver's job). [rx] gets the
    transmitted frame itself, shared with every other receiver, or a
    private copy ({!Frame.corrupt}) when fault injection corrupts its
    delivery. Each address may be attached once, as a port or as a tap. *)

val attach_tap : t -> addr:Addr.t -> rx:(Frame.t -> unit) -> unit
(** Connect a promiscuous station (a bridge port): [rx] is invoked for
    {e every} frame on the segment — unicast, broadcast, attached or
    unattached destination — except frames the tap itself sourced.  Taps
    are targeted after the regular ports, so attaching one never changes
    the relative delivery order existing stations observe.  Like ports,
    taps are counted in {!stats} ([targeted]/[delivered]) and are subject
    to fault injection. *)

val transmit : ?on_sent:(unit -> unit) -> ?bridged:bool -> t -> Frame.t -> unit
(** Queue a frame for transmission from [frame.src] (which must be
    attached). Asynchronous: returns immediately; CSMA/CD and delivery
    proceed via events.  [on_sent] fires when the frame leaves the wire
    (or is abandoned after excessive collisions) — NICs use it to free
    their single transmit buffer.  [bridged] waives the source-attachment
    check: a store-and-forward bridge re-transmits frames verbatim, so
    the source address names a station on {e another} segment. *)

val set_fault : t -> Fault.t -> unit

val set_host_handler : t -> crash:(unit -> unit) -> restart:(unit -> unit) -> unit
(** Wire the callbacks that scripted {!Fault.host_event}s invoke.  When
    transmission [n] completes and the fault script has a host event for
    [n], [crash] runs at that instant (before the frame's own delivery,
    so the crashing host misses it); for [Restart d], [restart] then runs
    [d] nanoseconds later.  Which host these act on is entirely up to the
    caller — typically the checker's server host. *)

type stats = {
  attempted : int;  (** transmit calls *)
  targeted : int;
      (** per-receiver intended deliveries across completed transmissions.
          A frame's receivers are its destination, if attached as a port,
          plus every station its kind reaches (every port and tap for a
          broadcast, every tap for a unicast) except its source.  At
          quiescence [targeted + duplicated = delivered + dropped]. *)
  delivered : int;  (** frame-to-station deliveries *)
  dropped : int;  (** lost to fault injection, counted per receiver *)
  duplicated : int;  (** extra per-receiver copies injected by Duplicate *)
  corrupted : int;  (** delivered with CRC damage *)
  collisions : int;  (** collision events *)
  excessive : int;  (** frames abandoned after 16 attempts *)
  tx_busy_ns : int;  (** total successful-transmission wire time *)
  bits_sent : int;  (** payload bits successfully transmitted *)
}

val stats : t -> stats

(** Utilization over a window. *)
type mark

val mark : t -> mark
val utilization_since : t -> mark -> float
val bits_since : t -> mark -> int
