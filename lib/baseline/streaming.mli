(** A streaming (windowed) sequential file-transfer protocol.

    Section 6.2 argues that streaming "can be done without" on a local
    network: disk latency dominates, the synchronous V exchange already
    overlaps client and server processing, and streaming costs buffer
    space, copies and code.  To measure that claim we implement what the
    paper declined to: a sliding-window streaming reader over raw frames.

    The server pushes data pages for a whole file, keeping up to 4 pages
    unacknowledged; the client acks cumulatively and hands each page to
    the application (paying a per-page copy from its protocol buffer —
    the extra copy streaming needs).  Lost pages are recovered go-back-N
    style from the cumulative ack. *)

type server

val start_server :
  Vsim.Engine.t -> nic:Vnet.Nic.t -> fs:Vfs.Fs.t -> server
(** The server charges 150 us of processing per page it sends. *)

type stats = {
  bytes : int;
  pages : int;
  elapsed_ns : int;
  per_page_ns : int;
}

val stream_file :
  Vsim.Engine.t -> nic:Vnet.Nic.t -> server:Vnet.Addr.t -> inum:int ->
  (stats, string) result
(** Read the whole file sequentially (fiber-blocking), charging the page
    copy out of the protocol buffer that streaming implies. *)
