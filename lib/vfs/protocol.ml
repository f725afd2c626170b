type op =
  | Open
  | Close
  | Create
  | Delete
  | Stat
  | Read_page
  | Write_page
  | Read_basic
  | Write_basic
  | Load_program
  | Exec

type rstatus =
  | Sok
  | Sbad_handle
  | Snot_found
  | Sexists
  | Sno_space
  | Sbad_request
  | Sio_error

let op_to_string = function
  | Open -> "open"
  | Close -> "close"
  | Create -> "create"
  | Delete -> "delete"
  | Stat -> "stat"
  | Read_page -> "read-page"
  | Write_page -> "write-page"
  | Read_basic -> "read-basic"
  | Write_basic -> "write-basic"
  | Load_program -> "load-program"
  | Exec -> "exec"

let rstatus_to_string = function
  | Sok -> "ok"
  | Sbad_handle -> "bad handle"
  | Snot_found -> "not found"
  | Sexists -> "exists"
  | Sno_space -> "no space"
  | Sbad_request -> "bad request"
  | Sio_error -> "io error"

let fileserver_logical_id = 1

let op_to_byte = function
  | Open -> 1
  | Close -> 2
  | Create -> 3
  | Delete -> 4
  | Stat -> 5
  | Read_page -> 6
  | Write_page -> 7
  | Read_basic -> 8
  | Write_basic -> 9
  | Load_program -> 10
  | Exec -> 11

let op_of_byte = function
  | 1 -> Some Open
  | 2 -> Some Close
  | 3 -> Some Create
  | 4 -> Some Delete
  | 5 -> Some Stat
  | 6 -> Some Read_page
  | 7 -> Some Write_page
  | 8 -> Some Read_basic
  | 9 -> Some Write_basic
  | 10 -> Some Load_program
  | 11 -> Some Exec
  | _ -> None

let rstatus_to_byte = function
  | Sok -> 0
  | Sbad_handle -> 1
  | Snot_found -> 2
  | Sexists -> 3
  | Sno_space -> 4
  | Sbad_request -> 5
  | Sio_error -> 6

let rstatus_of_byte = function
  | 0 -> Sok
  | 1 -> Sbad_handle
  | 2 -> Snot_found
  | 3 -> Sexists
  | 4 -> Sno_space
  | 6 -> Sio_error
  | _ -> Sbad_request

let encode_request msg ~op ~handle ~block ~count =
  Vkernel.Msg.set_u8 msg 1 (op_to_byte op);
  Vkernel.Msg.set_u16 msg 2 handle;
  Vkernel.Msg.set_u32 msg 4 block;
  Vkernel.Msg.set_u32 msg 8 count

(* Lease-capable clients stamp every request with the pid of their
   callback fiber on otherwise-unused request bytes.  A zeroed field
   decodes to [Pid.nil], so version- and lease-unaware clients are
   indistinguishable from clients that decline leases. *)

let set_request_callback msg pid =
  Vkernel.Msg.set_u32 msg 12 (Vkernel.Pid.to_int pid)

let request_callback msg = Vkernel.Pid.of_int (Vkernel.Msg.get_u32 msg 12)

let decode_request msg =
  match op_of_byte (Vkernel.Msg.get_u8 msg 1) with
  | None -> None
  | Some op ->
      Some
        ( op,
          Vkernel.Msg.get_u16 msg 2,
          Vkernel.Msg.get_u32 msg 4,
          Vkernel.Msg.get_u32 msg 8 )

let encode_reply msg ~status ~value =
  Vkernel.Msg.set_u8 msg 1 (rstatus_to_byte status);
  Vkernel.Msg.set_u32 msg 4 value

let decode_reply msg =
  (rstatus_of_byte (Vkernel.Msg.get_u8 msg 1), Vkernel.Msg.get_u32 msg 4)

(* Extended replies piggyback the file's version number (and its inode
   number, so clients can key caches) on otherwise-unused reply bytes.
   A version is an (epoch, counter) pair held as one int: the counter
   travels at bytes 8-11 and the epoch at bytes 20-23.  [decode_reply]
   ignores these bytes, so servers can always send the extended form
   without disturbing version-unaware clients. *)

let encode_reply_ext msg ~status ~value ~inum ~version =
  encode_reply msg ~status ~value;
  Vkernel.Msg.set_u32 msg 8 (version land 0xFFFF_FFFF);
  Vkernel.Msg.set_u32 msg 12 inum;
  Vkernel.Msg.set_u32 msg 20 (version lsr 32)

let decode_reply_ext msg =
  let status, value = decode_reply msg in
  ( status,
    value,
    Vkernel.Msg.get_u32 msg 12,
    (Vkernel.Msg.get_u32 msg 20 lsl 32) lor Vkernel.Msg.get_u32 msg 8 )

(* Lease grants ride on extended replies at bytes 16-19: the lease term
   in microseconds (u32), 0 meaning "no lease granted".  Like the other
   extended fields, version-unaware clients never look at these bytes. *)

let set_reply_lease msg ~term_us = Vkernel.Msg.set_u32 msg 16 term_us
let reply_lease_us msg = Vkernel.Msg.get_u32 msg 16

(* Break_lease is the one server->client message in the protocol: the
   server Sends it to the callback pid a client stamped on its requests,
   and the client's callback fiber Replies once its cache is
   invalidated.  The opcode byte is outside the request [op] space so a
   confused endpoint answers Sbad_request rather than mis-executing. *)

let break_lease_byte = 12

let encode_break_lease msg ~inum =
  Vkernel.Msg.set_u8 msg 1 break_lease_byte;
  Vkernel.Msg.set_u32 msg 4 inum

let decode_break_lease msg =
  if Vkernel.Msg.get_u8 msg 1 = break_lease_byte then
    Some (Vkernel.Msg.get_u32 msg 4)
  else None
