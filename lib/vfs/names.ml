(* The shard map: a tiny name service mapping file-name prefixes to the
   logical ids of server shards.  Purely local data — every client holds
   a copy of the map and resolves shards itself; locating the pid behind
   a logical id is GetPid's job (and re-resolving it after a failure is
   how failover to a replica works). *)

type entry = { prefix : string; logical_id : int }

type t = { entries : entry list; default : int }

(* Shard logical ids live in their own range above the well-known
   file-server id so a sharded and an unsharded service can coexist. *)
let shard_logical_id i =
  if i < 0 || i > 62 then invalid_arg "Names.shard_logical_id";
  0x40 + i

let make ?(default = Protocol.fileserver_logical_id) entries =
  List.iter
    (fun e ->
      if e.logical_id <= 0 then invalid_arg "Names.make: bad logical id")
    entries;
  (* Longest prefix first, so resolution is a simple scan. *)
  let entries =
    List.stable_sort
      (fun a b -> compare (String.length b.prefix) (String.length a.prefix))
      entries
  in
  { entries; default }

let is_prefix ~prefix s =
  String.length prefix <= String.length s
  && String.sub s 0 (String.length prefix) = prefix

let shard_of t name =
  match
    List.find_opt (fun e -> is_prefix ~prefix:e.prefix name) t.entries
  with
  | Some e -> e.logical_id
  | None -> t.default
