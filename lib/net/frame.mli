(** Data-link frames.

    Timing note: the paper's network-penalty measurements count only the
    datagram payload bytes (64 bytes of payload transmit in exactly
    64 x 2.721 us on the 3 Mb net); framing overhead is folded into the
    fixed per-packet costs, as the paper's own linear fit does.  We follow
    the same convention: the medium charges wire time for [length] bytes.

    Frames are immutable, apart from the {!payload_hash} memo: the
    medium hands every receiver of a frame (and every scripted
    re-delivery) the frame that was sent, and a gateway forwards the
    frame it heard.  A delivery that fault injection corrupts gets a
    private copy ({!corrupt}), so no other receiver sees the mark. *)

type t = private {
  src : Addr.t;
  dst : Addr.t;
  ethertype : int;  (** Protocol demultiplexing, e.g. interkernel vs WFS. *)
  payload : Bytes.t;
  corrupted : bool;
      (** Set by fault injection; models a CRC failure, so NICs drop the
          frame after spending the CPU to read it in. *)
  mutable hash : int;  (** {!payload_hash}'s memo, -1 until first asked *)
}

val make : src:Addr.t -> dst:Addr.t -> ethertype:int -> Bytes.t -> t

val corrupt : t -> t
(** A private copy of the frame with [corrupted] set; the frame itself is
    unchanged. *)

val payload_hash : t -> int
(** A 30-bit hash of the payload, mixed eight bytes at a time: a pure
    function of the payload bytes, computed on the first call for a
    frame and remembered, so every holder of the frame shares one
    computation.  Equal hashes do not mean equal payloads. *)

val length : t -> int
(** Payload length in bytes. *)

val is_broadcast : t -> bool
val pp : Format.formatter -> t -> unit

val ethertype_kernel : int
(** The interkernel protocol of the V kernel. *)

val ethertype_wfs : int
(** The specialized page-level file-access baseline. *)

val ethertype_stream : int
(** The streaming file-transfer baseline. *)

val ethertype_raw : int
(** Raw test traffic (network-penalty measurements). *)

val ethertype_boot : int
(** Multicast boot/page-load protocol (the boot-storm rig). *)
