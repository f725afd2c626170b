(** The interkernel packet protocol.

    Interkernel packets ride directly on raw data-link frames — the paper
    measured a 20% penalty for layered (IP) headers and chose not to burden
    the dominant local-net case (Section 3, point 2).  Reliability is built
    straight on this unreliable datagram service: the reply message doubles
    as the acknowledgement of a Send, and bulk data transfers carry a
    single acknowledgement at the end (Section 3, points 3 and 5).

    Wire format: a 64-byte header block (which embeds the 32-byte user
    message) followed by optional appended data — a piggybacked segment
    prefix, a reply segment, or a data-transfer fragment.

    {v
    offset  field
    0       op
    1       flags
    2..3    reserved (zero)
    4..7    source pid
    8..11   destination pid
    12..15  sequence / transaction id
    16..19  offset   (data fragment offset; dest ptr for reply segments;
                      expected offset in NAKs and MoveFrom requests)
    20..23  total    (total transfer size in bytes)
    24..27  data_len (bytes appended after the header)
    28..31  aux      (MoveFrom source ptr; GetPid logical id and scope)
    32..63  the 32-byte user message
    64..    appended data
    v} *)

type op =
  | Send  (** a Send, possibly with a piggybacked segment prefix *)
  | Reply  (** a Reply, possibly with an appended reply segment *)
  | Reply_pending
      (** receiver is alive but has not replied; suppresses retransmission
          escalation *)
  | Nack  (** destination process does not exist *)
  | Data_mt  (** MoveTo data fragment, kernel-to-kernel *)
  | Data_mf  (** MoveFrom data fragment (the "acknowledging data") *)
  | Data_ack  (** single acknowledgement closing a MoveTo *)
  | Data_nak
      (** receiver saw a gap; [offset] tells the sender where to resume
          (retransmission from the last correctly received packet) *)
  | Move_from_req  (** request to stream a remote segment back *)
  | Getpid_req  (** broadcast logical-id lookup *)
  | Getpid_reply
  | Fwd_notice
      (** tells a blocked sender's kernel its message was forwarded:
          retransmissions and grant checks retarget to the new recipient
          ([aux] carries the new pid) *)

type t = private {
  op : op;
  src_pid : Pid.t;
  dst_pid : Pid.t;
  seq : int;  (** message sequence number / transfer transaction id *)
  offset : int;
  total : int;
  aux : int;
  data_len : int;  (** bytes of appended data; may be 0 *)
  wire : Bytes.t;
  base : int;  (** where the packet's image starts in [wire] *)
}
(** A packet is its own wire image: the header fields above are decoded
    once, and the message and data stay in [wire] from [base] on.  The
    image is never written after {!make}, so retransmitting a packet,
    re-serving a cached reply and handing a frame to every receiver of a
    broadcast all share the same bytes. *)

val make :
  op:op ->
  src_pid:Pid.t ->
  dst_pid:Pid.t ->
  seq:int ->
  ?offset:int ->
  ?total:int ->
  ?aux:int ->
  ?msg:Msg.t ->
  ?data:Mem.t * int * int ->
  unit ->
  t
(** Writes the header, the message (zeros by default) and the data into
    one fresh buffer.  [data] is [(mem, pos, len)]: the [len] bytes at
    [pos] in [mem], copied straight into the image.  Raises
    [Invalid_argument] for a message that is not {!Msg.length} bytes or
    a range outside [mem]. *)

val header_bytes : int
(** 64: the fixed header block, user message included. *)

val wire_length : t -> int
(** Bytes this packet occupies as a frame payload. *)

val to_bytes : t -> Bytes.t
(** The wire image: a made packet's own buffer, not a copy.  Send it;
    never write it. *)

val of_bytes : ?off:int -> Bytes.t -> (t, string) result
(** Parse the image that starts [off] (default 0) bytes into a frame
    payload, rejecting one shorter than the header, with an unknown op
    or whose header's data length disagrees with the bytes that follow.
    Parsing copies nothing: the packet reads its message and data in
    place from the payload, which must not change afterwards. *)

(** {1 The message and data, read in place} *)

val msg : t -> Msg.t
(** A fresh copy of the 32-byte message. *)

val blit_msg : t -> Msg.t -> unit
(** Copy the message into a caller's buffer. *)

val data : t -> Bytes.t
(** A fresh copy of the appended data. *)

val blit_data : t -> Mem.t -> pos:int -> len:int -> unit
(** Copy the first [len] bytes of the data to [pos] in a space.  Raises
    [Invalid_argument] if [len] exceeds {!data_len} or the range lies
    outside the space. *)

val retarget : ?msg:Msg.t -> t -> dst_pid:Pid.t -> t
(** A copy of the packet addressed to [dst_pid], and carrying [msg] if
    given; the original's image is unchanged. *)

val op_to_string : op -> string
val pp : Format.formatter -> t -> unit
