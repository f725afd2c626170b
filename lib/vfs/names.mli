(** The shard map: file-name prefixes to server-shard logical ids.

    A sharded file service registers each shard under its own logical id
    ({!shard_logical_id}); clients map a file name to a shard with
    {!shard_of} (longest matching prefix, or the default id) and then
    locate — and after a crash, re-locate — whichever host currently
    serves that id via GetPid.  Failover is therefore name-based: a
    replica that registers under the primary's logical id inherits its
    clients on their next resolution.  See doc/INTERNETWORK.md. *)

type entry = { prefix : string; logical_id : int }

type t

val shard_logical_id : int -> int
(** The logical id of shard [i] (0-based, at most 62), in a range
    disjoint from {!Protocol.fileserver_logical_id}. *)

val make : ?default:int -> entry list -> t
(** [default] (the id for names no prefix matches) defaults to the
    well-known file-server id. *)

val shard_of : t -> string -> int
(** The logical id serving [name]: longest matching prefix wins. *)
