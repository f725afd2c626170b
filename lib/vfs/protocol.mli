(** The V I/O protocol: file access over the kernel IPC.

    This is the Verex-derived protocol of Section 3.4: a client Sends a
    32-byte request naming the file, block number and byte count, plus a
    segment of its own address space for the data; the server uses
    ReceiveWithSegment / ReplyWithSegment (or MoveTo / MoveFrom for the
    basic Thoth-style variants and bulk program loading) to move the data.

    Request message layout (application bytes of {!Vkernel.Msg}):
    {v
    byte 1      opcode
    bytes 2-3   file handle
    bytes 4-7   block number (or byte position for Stat/Load)
    bytes 8-11  byte count
    v}
    File names travel as read-accessible segments piggybacked on the
    request — the same mechanism as page writes, which the paper notes
    "has proven useful ... in passing character string names to name
    servers."

    Reply layout: byte 1 = status, bytes 4-7 = value (count, handle or
    size). *)

type op =
  | Open
  | Close
  | Create
  | Delete
  | Stat
  | Read_page  (** data returned by ReplyWithSegment *)
  | Write_page  (** data carried by the request's segment *)
  | Read_basic  (** data returned by MoveTo: Send-Receive-MoveTo-Reply *)
  | Write_basic  (** data fetched by MoveFrom *)
  | Load_program  (** whole file pushed by MoveTo in transfer units *)
  | Exec
      (** run a data-intensive program *at the server* over a file's pages
          instead of shipping them — the Section 7 extension ("it is
          advantageous ... to execute the program on the file server").
          [block]/[count] select the page range; the reply value is the
          program's result (here: a checksum). *)

type rstatus =
  | Sok
  | Sbad_handle
  | Snot_found
  | Sexists
  | Sno_space
  | Sbad_request
  | Sio_error

val op_to_string : op -> string
val rstatus_to_string : rstatus -> string

val fileserver_logical_id : int
(** The well-known logical id under which file servers register (the
    paper's example "fileserver" logicalid). *)

(** {1 Requests} *)

val encode_request :
  Vkernel.Msg.t -> op:op -> handle:int -> block:int -> count:int -> unit
(** Fill a message with a request (does not touch the segment words). *)

val decode_request : Vkernel.Msg.t -> (op * int * int * int) option
(** [(op, handle, block, count)] if the message parses. *)

val set_request_callback : Vkernel.Msg.t -> Vkernel.Pid.t -> unit
(** Stamp the pid of the client's lease-callback fiber on request bytes
    12-15.  Servers grant leases only to requests carrying a non-nil
    callback pid; requests built by {!encode_request} leave the field
    zeroed, which decodes to [Pid.nil] ("no lease wanted"). *)

val request_callback : Vkernel.Msg.t -> Vkernel.Pid.t
(** The callback pid a request carries ([Pid.nil] if none). *)

(** {1 Replies} *)

val encode_reply : Vkernel.Msg.t -> status:rstatus -> value:int -> unit

val encode_reply_ext :
  Vkernel.Msg.t -> status:rstatus -> value:int -> inum:int -> version:int -> unit
(** Like {!encode_reply}, but additionally piggybacks consistency
    metadata on otherwise-unused reply bytes.  [version] is the file's
    server-side version, an (epoch, counter) pair held as
    [epoch lsl 32 lor counter] so that an int comparison orders it:
    bytes 8-11 carry the counter, bytes 20-23 the epoch, and bytes 12-15
    the inode number.  A plain reply leaves these bytes unused, so
    version-unaware clients can parse extended replies unchanged. *)

val decode_reply_ext : Vkernel.Msg.t -> rstatus * int * int * int
(** [(status, value, inum, version)], the version rebuilt from its two
    words. *)

val set_reply_lease : Vkernel.Msg.t -> term_us:int -> unit
(** Piggyback a lease grant on an extended reply: bytes 16-19 carry the
    lease term in microseconds, 0 meaning "no lease granted". *)

val reply_lease_us : Vkernel.Msg.t -> int
(** The lease term (microseconds) granted by a reply; 0 if none. *)

(** {1 Lease callbacks}

    The server invalidates a client's cache by Sending a Break_lease
    message to the callback pid the client stamped on its requests.  The
    client's callback fiber Replies once every block cached under the
    named inode has been discarded; the server withholds the conflicting
    write's acknowledgement until then, so no client can read stale data
    under a lease it believes valid (doc/LEASES.md). *)

val encode_break_lease : Vkernel.Msg.t -> inum:int -> unit
(** Fill a message with a Break_lease callback for [inum].  It names the
    inode only: the client drops the lease and the clean blocks whatever
    the new version is, and learns that version from its next extended
    reply. *)

val decode_break_lease : Vkernel.Msg.t -> int option
(** The inode number if the message is a Break_lease callback. *)
