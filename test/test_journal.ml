(* The write-ahead journal: crash-at-every-record-boundary recovery,
   replay idempotence, the epoch kept in the journal's head, and
   allocation unwind when an operation fails midway. *)

let bs = Vfs.Fs.block_size

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs error: %s" (Vfs.Fs.error_to_string e)

let blocks = 256
let jblocks = 32
let file_blocks = 4
let old_image = Bytes.init (file_blocks * bs) Vworkload.Testbed.pattern_byte

let new_image =
  Bytes.init (file_blocks * bs) (fun i ->
      Vworkload.Testbed.pattern_byte (9000 + i))

(* One instrumented run: build a journaled fs holding "data" = old_image,
   then overwrite the whole file in a single (journaled, hence single-
   transaction) write, capturing a media snapshot after every completed
   disk write.  Snapshot [k] is exactly what a host crash between disk
   writes [k] and [k+1] of the overwrite leaves on the platter: snapshot
   0 is the media before the overwrite, and every journal-record
   boundary (descriptor, after-image, commit, checkpoint, retire) shows
   up as one snapshot, the last one after the retire lands.
   [recoveries] runs {!Vfs.Fs.recover} that often between the first
   write and the overwrite.

   [Vfs.Disk.writes] counts a write when it is issued, and the disk
   stores the block when the write completes.  The file system writes
   from one fiber, one block at a time, and issues each write at or
   after the instant the previous one lands; so when the monitor first
   sees write [k] issued, writes [1..k-1] have landed and no other has,
   and once the overwrite returns every write has landed. *)
let boundary_snapshots ?(recoveries = 0) () =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks ~block_size:bs ()
  in
  let snaps = ref [] in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~journal_blocks:jblocks ~ninodes:16 ();
        let fs = get (Vfs.Fs.mount disk) in
        let inum = get (Vfs.Fs.create fs "data") in
        get (Vfs.Fs.write fs ~inum ~pos:0 old_image);
        for _ = 1 to recoveries do
          Vfs.Fs.recover fs
        done;
        (* Separate the op's disk writes in time so the monitor below
           can snapshot at every single completion. *)
        Vfs.Disk.set_latency disk (Vfs.Disk.Fixed 1000);
        let base = Vfs.Disk.writes disk in
        let op_done = ref false in
        snaps := [ Vfs.Disk.snapshot disk ];
        let (_ : Vsim.Proc.t) =
          Vsim.Proc.spawn eng ~name:"boundary-monitor" (fun () ->
              let seen = ref 0 in
              while not !op_done do
                Vsim.Proc.sleep 100;
                let w = Vfs.Disk.writes disk - base in
                if w > !seen then begin
                  (* 1 us per write vs 100 ns polls: no boundary can
                     slip past unobserved. *)
                  Alcotest.(check int) "one boundary per poll" (!seen + 1) w;
                  seen := w;
                  (* Write [w] was issued, so write [w - 1] has landed;
                     the first issue follows snapshot 0 unchanged. *)
                  if w > 1 then snaps := Vfs.Disk.snapshot disk :: !snaps
                end
              done)
        in
        get (Vfs.Fs.write fs ~inum ~pos:0 new_image);
        op_done := true;
        (* The final write, the retire, has landed. *)
        snaps := Vfs.Disk.snapshot disk :: !snaps;
        Alcotest.(check int) "a snapshot before and after every write"
          (Vfs.Disk.writes disk - base + 1)
          (List.length !snaps))
  in
  Vsim.Engine.run eng;
  List.rev !snaps

(* Mount a fresh disk restored from [snap] and hand (fs, file content)
   to [f]; mounting runs journal replay. *)
let with_recovered snap f =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks ~block_size:bs ()
  in
  Vfs.Disk.restore disk snap;
  let ran = ref false in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        let fs = get (Vfs.Fs.mount disk) in
        let inum =
          match Vfs.Fs.lookup fs "data" with
          | Some i -> i
          | None -> Alcotest.fail "file vanished after recovery"
        in
        let content =
          get (Vfs.Fs.read fs ~inum ~pos:0 ~len:(file_blocks * bs))
        in
        f fs content;
        ran := true)
  in
  Vsim.Engine.run eng;
  Alcotest.(check bool) "recovery check ran" true !ran

let test_crash_every_boundary () =
  let snaps = boundary_snapshots () in
  (* A 4-block overwrite journals at least: descriptor + images + commit
     + checkpoints + retire. *)
  Alcotest.(check bool) "enough boundaries covered" true
    (List.length snaps >= 8);
  List.iteri
    (fun k snap ->
      with_recovered snap (fun fs content ->
          Alcotest.(check (list string))
            (Printf.sprintf "fsck clean at boundary %d" k)
            [] (Vfs.Fs.check fs);
          let all_old = Bytes.equal content old_image in
          let all_new = Bytes.equal content new_image in
          if not (all_old || all_new) then
            Alcotest.failf "boundary %d: torn file after recovery" k))
    snaps;
  (* The last boundary is after the final disk write: the transaction
     committed and checkpointed, so recovery must surface the new
     image. *)
  with_recovered
    (List.nth snaps (List.length snaps - 1))
    (fun _ content ->
      Alcotest.(check bool) "completed write survives" true
        (Bytes.equal content new_image))

let test_replay_idempotent () =
  let snaps = boundary_snapshots () in
  List.iteri
    (fun k snap ->
      with_recovered snap (fun fs content1 ->
          (* Replay again on the already-recovered image: the journal
             was retired, so nothing may change. *)
          Vfs.Fs.recover fs;
          let inum = Option.get (Vfs.Fs.lookup fs "data") in
          let content2 =
            get (Vfs.Fs.read fs ~inum ~pos:0 ~len:(file_blocks * bs))
          in
          Alcotest.(check bool)
            (Printf.sprintf "twice = once at boundary %d" k)
            true
            (Bytes.equal content1 content2);
          Alcotest.(check (list string)) "still consistent" []
            (Vfs.Fs.check fs)))
    snaps

(* The epoch: 0 after a format, one more after each recovery, and kept
   by a later commit, a mount and a clone, none of which raises it.  A
   recovery writes nothing itself: the next commit stores the epoch, so
   two recoveries with no commit between them read the same one. *)
let test_epoch () =
  let eng = Vsim.Engine.create () in
  let mk () =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks ~block_size:bs ()
  in
  let disk = mk () in
  let ran = ref false in
  let epoch what want fs = Alcotest.(check int) what want (Vfs.Fs.epoch fs) in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~journal_blocks:jblocks ~ninodes:16 ();
        let fs = get (Vfs.Fs.mount disk) in
        epoch "fresh format" 0 fs;
        Vfs.Fs.recover fs;
        epoch "first recovery" 1 fs;
        let inum = get (Vfs.Fs.create fs "data") in
        epoch "after a commit" 1 fs;
        Vfs.Fs.recover fs;
        epoch "second recovery" 2 fs;
        get (Vfs.Fs.write fs ~inum ~pos:0 old_image);
        epoch "after another commit" 2 fs;
        epoch "fresh mount" 2 (get (Vfs.Fs.mount disk));
        let copy = mk () in
        Vfs.Disk.restore copy (Vfs.Disk.snapshot disk);
        let clone = Vfs.Fs.clone fs copy in
        epoch "clone" 2 clone;
        Vfs.Fs.recover clone;
        epoch "the clone's recovery" 3 clone;
        epoch "leaves the original alone" 2 fs;
        Vfs.Fs.recover clone;
        epoch "no commit since the last recovery" 3 clone;
        ran := true)
  in
  Vsim.Engine.run eng;
  Alcotest.(check bool) "epoch check ran" true !ran

(* The epoch is readable at every journal-record boundary: a descriptor
   in the head block carries it as a retired head does.  Until the
   overwrite's descriptor lands nothing has been committed since the
   recovery, so the disk still holds the old epoch: only snapshot 0 is
   taken before the descriptor lands. *)
let test_epoch_every_boundary () =
  let snaps = boundary_snapshots ~recoveries:1 () in
  List.iteri
    (fun k snap ->
      let want = if k = 0 then 0 else 1 in
      with_recovered snap (fun fs _ ->
          Alcotest.(check int)
            (Printf.sprintf "epoch at boundary %d" k)
            want (Vfs.Fs.epoch fs);
          Vfs.Fs.recover fs;
          Alcotest.(check int)
            (Printf.sprintf "recovered at boundary %d" k)
            (want + 1) (Vfs.Fs.epoch fs)))
    snaps

(* Regression: a write that fails midway (No_space after some blocks
   were already allocated) must unwind its allocations — bitmap, inode
   and indirect table — instead of leaking them.  Covers both the
   explicit unwind (unjournaled) and transaction abort (journaled). *)
let no_space_unwind journal_blocks () =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:64 ~block_size:bs
      ()
  in
  let ran = ref false in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~journal_blocks ~ninodes:16 ();
        let fs = get (Vfs.Fs.mount disk) in
        let keep = get (Vfs.Fs.create fs "keep") in
        get (Vfs.Fs.write fs ~inum:keep ~pos:0 (Bytes.make bs 'k'));
        let b = get (Vfs.Fs.create fs "b") in
        (match Vfs.Fs.write fs ~inum:b ~pos:0 (Bytes.make 40000 'x') with
        | Error Vfs.Fs.No_space -> ()
        | Ok () -> Alcotest.fail "oversized write accepted"
        | Error e ->
            Alcotest.failf "wrong error: %s" (Vfs.Fs.error_to_string e));
        Alcotest.(check (list string)) "no leaked allocations" []
          (Vfs.Fs.check fs);
        Alcotest.(check int) "failed write left no bytes" 0
          (get (Vfs.Fs.size fs ~inum:b));
        (* The space really is reusable: a fitting write must succeed. *)
        get (Vfs.Fs.write fs ~inum:b ~pos:0 (Bytes.make (8 * bs) 'y'));
        ran := true)
  in
  Vsim.Engine.run eng;
  Alcotest.(check bool) "unwind check ran" true !ran

(* A write that allocates through an indirect table and then runs out of
   space must leave no block changed in place: the block cache of the
   handle that made it must still equal the disk.  So the old handle,
   its cache warm, and a fresh mount of the same disk answer alike —
   fsck, directory, and every file's size and bytes — and fsck is clean.
   With [table_exists], file "b" already has its indirect table, so the
   failing write adds pointers to a cached table; otherwise the write
   allocates the table itself. *)
let no_space_cache journal_blocks ~table_exists () =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:64 ~block_size:bs
      ()
  in
  let answers fs =
    ( Vfs.Fs.check fs,
      List.map
        (fun (name, inum) ->
          let size = get (Vfs.Fs.size fs ~inum) in
          (name, get (Vfs.Fs.read fs ~inum ~pos:0 ~len:size)))
        (Vfs.Fs.list fs) )
  in
  let ran = ref false in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~journal_blocks ~ninodes:16 ();
        let fs = get (Vfs.Fs.mount disk) in
        let keep = get (Vfs.Fs.create fs "keep") in
        get (Vfs.Fs.write fs ~inum:keep ~pos:0 (Bytes.make bs 'k'));
        let b = get (Vfs.Fs.create fs "b") in
        if table_exists then
          get (Vfs.Fs.write fs ~inum:b ~pos:0 (Bytes.make (13 * bs) 'b'));
        (match Vfs.Fs.write fs ~inum:b ~pos:0 (Bytes.make 40000 'x') with
        | Error Vfs.Fs.No_space -> ()
        | Ok () -> Alcotest.fail "oversized write accepted"
        | Error e ->
            Alcotest.failf "wrong error: %s" (Vfs.Fs.error_to_string e));
        let warm = answers fs in
        Alcotest.(check (list string)) "fsck clean" [] (fst warm);
        Alcotest.(check bool) "cache equals disk" true
          (warm = answers (get (Vfs.Fs.mount disk)));
        ran := true)
  in
  Vsim.Engine.run eng;
  Alcotest.(check bool) "check ran" true !ran

let suite =
  [
    Alcotest.test_case "crash at every journal boundary" `Quick
      test_crash_every_boundary;
    Alcotest.test_case "replay idempotent" `Quick test_replay_idempotent;
    Alcotest.test_case "epoch" `Quick test_epoch;
    Alcotest.test_case "epoch at every journal boundary" `Quick
      test_epoch_every_boundary;
    Alcotest.test_case "no-space unwind (unjournaled)" `Quick
      (no_space_unwind 0);
    Alcotest.test_case "no-space unwind (journaled)" `Quick
      (no_space_unwind 16);
    Alcotest.test_case "no-space cache (unjournaled, new table)" `Quick
      (no_space_cache 0 ~table_exists:false);
    Alcotest.test_case "no-space cache (unjournaled, cached table)" `Quick
      (no_space_cache 0 ~table_exists:true);
    Alcotest.test_case "no-space cache (journaled, new table)" `Quick
      (no_space_cache 24 ~table_exists:false);
    Alcotest.test_case "no-space cache (journaled, cached table)" `Quick
      (no_space_cache 24 ~table_exists:true);
  ]
