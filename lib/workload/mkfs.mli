(** The one mkfs path behind {!Testbed.make_test_fs} and
    {!Topology.make_fs}.

    Formatting a disk and writing its files is set-up, not part of any
    experiment, so it is not simulated on the caller's engine.  Each
    shape (block count, journal size, inode count, files) is formatted
    once per domain, on a private engine, into an image; every later
    request for that shape gets a fresh disk seeded copy-on-write from
    the image ({!Vfs.Disk.seed}) and a clone of the mounted filesystem
    ({!Vfs.Fs.clone}).  The result is exactly what formatting that disk
    in place produced: the same blocks, disk counters, cache contents
    and cache counters. *)

val pattern_byte : int -> char
(** Deterministic test-data generator: byte at offset [i]. *)

val make :
  Vsim.Engine.t ->
  host:int ->
  latency:Vfs.Disk.latency ->
  blocks:int ->
  journal_blocks:int ->
  files:(string * int) list ->
  Vfs.Fs.t
(** A filesystem of that shape, with a 256-inode table, on a new disk of
    [eng] (which splits [eng]'s random stream as {!Vfs.Disk.create}
    does), holding the named files with {!pattern_byte} contents.  Then
    runs [eng] until it is quiescent, and runs nothing else on it.  The
    image for a shape not seen before on this domain is built on an
    engine that the create hook ({!Vsim.Engine.set_create_hook}) does
    not see. *)
