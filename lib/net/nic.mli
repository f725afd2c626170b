(** A programmed-I/O network interface, like the SUN's 3 Mb board.

    The defining property (paper, Section 4): the processor copies every
    packet between memory and the interface, so each transmission costs
    [pkt_send_setup + bytes x nic_copy] of CPU at the sender and
    [pkt_recv_handling + bytes x nic_copy] at the receiver.  Once the copy
    into the interface completes, transmission proceeds without the CPU —
    which is what lets client and server processing overlap wire time.

    Received frames with CRC damage are counted and dropped after the CPU
    has paid to read them in, exactly like real hardware with a software
    checksum. *)

type t

val create :
  Vsim.Engine.t -> cpu:Vhw.Cpu.t -> medium:Medium.t -> addr:Addr.t -> t

val addr : t -> Addr.t
val cpu : t -> Vhw.Cpu.t
val medium : t -> Medium.t

val set_receiver : t -> ethertype:int -> (Frame.t -> unit) -> unit
(** Install the "interrupt handler" invoked (in event context, after the
    receive CPU charge) for each good frame of the given ethertype.
    One handler per ethertype; installing again replaces it.  The
    receive charge runs in place when the medium gave the interface the
    tail of its delivery and the grant is provably the next event, and
    is a queued grant otherwise; either way the handler is the last
    call of that grant, so it holds the tail of the event firing. *)

val send_k :
  t ->
  ?pre_cost:int ->
  dst:Addr.t ->
  ethertype:int ->
  Bytes.t ->
  (unit -> unit) ->
  unit
(** Wait for the single transmit buffer, charge [pre_cost] plus the
    transmit CPU cost, hand the frame to the medium, then call the
    continuation.  Usable from interrupt context.

    The single buffer matters for bulk transfer: the copy of packet [k+1]
    into the interface cannot begin until packet [k] has left the wire, so
    a burst's period is copy time + wire time — which is what limits the
    paper's program loading to ~192 KB/s. *)

val send_tail_k :
  t ->
  ?pre_cost:int ->
  dst:Addr.t ->
  ethertype:int ->
  Bytes.t ->
  (unit -> unit) ->
  unit
(** {!send_k} made as the last call of code that holds the tail of the
    event firing ({!Vsim.Engine.holds_tail}).  With the transmit buffer
    free, the copy into the interface runs in place when its CPU grant
    is provably the next event ({!Vhw.Cpu.charge_in_place}), and the
    continuation follows at once; otherwise it is {!send_k}. *)

val send :
  t -> ?pre_cost:int -> dst:Addr.t -> ethertype:int -> Bytes.t -> unit
(** Blocking form of {!send_k} for fiber context: returns when the frame
    has been handed to the medium (not when delivered).  With the
    transmit buffer free, the copy into the interface runs in place when
    its CPU grant is provably the next event ({!Vhw.Cpu.charge_in_place});
    otherwise the fiber parks, with a tail resume. *)

val send_then :
  t ->
  ?pre_cost:int ->
  dst:Addr.t ->
  ethertype:int ->
  Bytes.t ->
  (unit -> unit) ->
  unit
(** [send_then nic ... payload k] is {!send} that calls [k] once the
    frame is on the medium, before it returns.  If the fiber parked,
    [k] runs in the copy's completion callback, as {!send_k}'s would,
    so it runs even when the process is killed while it waits. *)

val crc_drops : t -> int
