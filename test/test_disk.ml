(* Disk model tests. *)

let test_fixed_latency () =
  let eng = Vsim.Engine.create () in
  let d =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 20))
      ~blocks:16 ~block_size:512 ()
  in
  let t = ref 0 in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        let (_ : Bytes.t) = Vfs.Disk.read d 3 in
        t := Vsim.Engine.now eng)
  in
  Vsim.Engine.run eng;
  Alcotest.(check int) "20 ms access" (Vsim.Time.ms 20) !t

let test_persistence () =
  let eng = Vsim.Engine.create () in
  let d = Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:8 ~block_size:16 () in
  let ok = ref false in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        let data = Bytes.of_string "0123456789abcdef" in
        Vfs.Disk.write d 5 data;
        (* Mutating the caller's buffer must not affect the stored block. *)
        Bytes.set data 0 'X';
        let got = Vfs.Disk.read d 5 in
        ok := Bytes.to_string got = "0123456789abcdef")
  in
  Vsim.Engine.run eng;
  Alcotest.(check bool) "write-read roundtrip isolated" true !ok;
  Alcotest.(check int) "reads" 1 (Vfs.Disk.reads d);
  Alcotest.(check int) "writes" 1 (Vfs.Disk.writes d)

let test_serialization () =
  (* Two concurrent accesses take 2x the latency in total. *)
  let eng = Vsim.Engine.create () in
  let d =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 10))
      ~blocks:8 ~block_size:16 ()
  in
  let finish = ref [] in
  Vfs.Disk.read_k d 0 (fun _ -> finish := Vsim.Engine.now eng :: !finish);
  Vfs.Disk.read_k d 1 (fun _ -> finish := Vsim.Engine.now eng :: !finish);
  Vsim.Engine.run eng;
  Alcotest.(check (list int))
    "one at a time"
    [ Vsim.Time.ms 10; Vsim.Time.ms 20 ]
    (List.rev !finish);
  Alcotest.(check int) "busy" (Vsim.Time.ms 20) (Vfs.Disk.busy_ns d)

let test_seek_model () =
  let eng = Vsim.Engine.create () in
  let lat =
    Vfs.Disk.Seek
      { base_ns = Vsim.Time.ms 2; full_seek_ns = Vsim.Time.ms 40;
        rotation_ns = 0; cylinders = 100 }
  in
  let d = Vfs.Disk.create eng ~latency:lat ~blocks:1000 ~block_size:16 () in
  let times = ref [] in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        let t0 = Vsim.Engine.now eng in
        let (_ : Bytes.t) = Vfs.Disk.read d 0 in
        let t1 = Vsim.Engine.now eng in
        (* Far block: long seek. *)
        let (_ : Bytes.t) = Vfs.Disk.read d 990 in
        let t2 = Vsim.Engine.now eng in
        (* Same cylinder: base only. *)
        let (_ : Bytes.t) = Vfs.Disk.read d 991 in
        let t3 = Vsim.Engine.now eng in
        times := [ t1 - t0; t2 - t1; t3 - t2 ])
  in
  Vsim.Engine.run eng;
  match !times with
  | [ near; far; same ] ->
      Alcotest.(check int) "near: base only" (Vsim.Time.ms 2) near;
      Alcotest.(check bool) "far seek costs more" true (far > near);
      Alcotest.(check int) "same cylinder: base only" (Vsim.Time.ms 2) same
  | _ -> Alcotest.fail "missing measurements"

let test_queue_accounting () =
  (* Three submissions at t=0: the first enters service immediately, the
     other two queue behind it and their waits are accounted. *)
  let eng = Vsim.Engine.create () in
  let d =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 10))
      ~blocks:8 ~block_size:16 ()
  in
  let finish = ref [] in
  let note _ = finish := Vsim.Engine.now eng :: !finish in
  Vfs.Disk.read_k d 0 note;
  Vfs.Disk.read_k d 1 note;
  Vfs.Disk.read_k d 2 note;
  Alcotest.(check int) "two queued behind the head" 2 (Vfs.Disk.queue_depth d);
  Vsim.Engine.run eng;
  Alcotest.(check (list int))
    "FCFS completion order"
    [ Vsim.Time.ms 10; Vsim.Time.ms 20; Vsim.Time.ms 30 ]
    (List.rev !finish);
  Alcotest.(check int) "queue drained" 0 (Vfs.Disk.queue_depth d);
  Alcotest.(check int) "two requests waited" 2 (Vfs.Disk.queue_waits d);
  (* The second waits 10 ms, the third 20 ms. *)
  Alcotest.(check int)
    "total queue wait" (Vsim.Time.ms 30)
    (Vfs.Disk.queue_wait_ns d);
  Alcotest.(check int) "max depth" 2 (Vfs.Disk.max_queue_depth d)

let test_queue_idle_unaccounted () =
  (* Back-to-back sequential use (submit after the previous completion)
     never touches the queue counters — the busy single-server case must
     look identical to the seed. *)
  let eng = Vsim.Engine.create () in
  let d =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed (Vsim.Time.ms 10))
      ~blocks:8 ~block_size:16 ()
  in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        let (_ : Bytes.t) = Vfs.Disk.read d 0 in
        let (_ : Bytes.t) = Vfs.Disk.read d 1 in
        ())
  in
  Vsim.Engine.run eng;
  Alcotest.(check int) "no waits" 0 (Vfs.Disk.queue_waits d);
  Alcotest.(check int) "no wait time" 0 (Vfs.Disk.queue_wait_ns d);
  Alcotest.(check int) "no depth" 0 (Vfs.Disk.max_queue_depth d)

let test_bounds () =
  let eng = Vsim.Engine.create () in
  let d = Vfs.Disk.create eng ~blocks:4 ~block_size:16 () in
  (try
     Vfs.Disk.read_k d 9 ignore;
     Alcotest.fail "out of range accepted"
   with Invalid_argument _ -> ());
  try
    Vfs.Disk.write_k d 0 (Bytes.make 3 'x') ignore;
    Alcotest.fail "short block accepted"
  with Invalid_argument _ -> ()

(* Run [f] as a fiber on a fresh engine with a zero-latency 16,384-block
   disk (the block table is sparse: 256-block chunks made on first write). *)
let with_big_disk f =
  let eng = Vsim.Engine.create () in
  let d =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:16384
      ~block_size:16 ()
  in
  let (_ : Vsim.Proc.t) = Vsim.Proc.spawn eng (fun () -> f d) in
  Vsim.Engine.run eng;
  d

let block c = Bytes.make 16 c
let check_block d b want = Alcotest.(check bytes) (Fmt.str "block %d" b) want (Vfs.Disk.read d b)

let test_sparse_table () =
  let d =
    with_big_disk (fun d ->
        check_block d 9000 (block '\000');
        (* Blocks 5 and 300 live in different chunks. *)
        Vfs.Disk.write d 5 (block 'a');
        Vfs.Disk.write d 300 (block 'b');
        Vfs.Disk.write d 16383 (block 'c');
        check_block d 5 (block 'a');
        check_block d 300 (block 'b');
        check_block d 16383 (block 'c');
        check_block d 6 (block '\000');
        check_block d 299 (block '\000'))
  in
  Alcotest.(check int) "blocks" 16384 (Vfs.Disk.blocks d);
  List.iter
    (fun b ->
      Alcotest.check_raises "out of range"
        (Invalid_argument
           (Fmt.str "Disk: block %d out of range (16384 blocks)" b))
        (fun () -> Vfs.Disk.read_k d b ignore))
    [ 16384; -1 ]

let test_snapshot_restore () =
  ignore
    (with_big_disk (fun d ->
         Vfs.Disk.write d 1 (block 'a');
         let img = Vfs.Disk.snapshot d in
         Vfs.Disk.write d 1 (block 'b');
         Vfs.Disk.write d 2 (block 'c');
         (* A chunk that did not exist when the snapshot was taken. *)
         Vfs.Disk.write d 700 (block 'd');
         Vfs.Disk.restore d img;
         check_block d 1 (block 'a');
         check_block d 2 (block '\000');
         check_block d 700 (block '\000');
         (* The restored image is a copy: writing the disk again leaves
            the snapshot as it was. *)
         Vfs.Disk.write d 1 (block 'e');
         Vfs.Disk.restore d img;
         check_block d 1 (block 'a')))

(* A disk holding [img]'s media and counters, on a fresh engine. *)
let seeded img =
  let eng = Vsim.Engine.create () in
  let d =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:16384
      ~block_size:16 ()
  in
  Vfs.Disk.seed d img;
  d

let peek_block d b want =
  Alcotest.(check bytes) (Fmt.str "block %d" b) want (Vfs.Disk.peek d b)

(* Run [f] as a fiber on [d]'s engine. *)
let on d f =
  let eng = Vfs.Disk.engine d in
  let (_ : Vsim.Proc.t) = Vsim.Proc.spawn eng (fun () -> f d) in
  Vsim.Engine.run eng

let test_image_sharing () =
  let src =
    with_big_disk (fun d ->
        Vfs.Disk.write d 1 (block 'a');
        Vfs.Disk.write d 700 (block 'b');
        ignore (Vfs.Disk.read d 1 : Bytes.t))
  in
  let img = Vfs.Disk.snapshot src in
  let a = seeded img and b = seeded img in
  Alcotest.(check (pair int int))
    "counters carry over" (1, 2)
    (Vfs.Disk.reads a, Vfs.Disk.writes a);
  on a (fun d ->
      Vfs.Disk.write d 1 (block 'x');
      Vfs.Disk.write d 2 (block 'y'));
  on b (fun d -> Vfs.Disk.write d 700 (block 'z'));
  (* Each disk sees only its own writes. *)
  peek_block a 1 (block 'x');
  peek_block a 2 (block 'y');
  peek_block a 700 (block 'b');
  peek_block b 1 (block 'a');
  peek_block b 2 (block '\000');
  peek_block b 700 (block 'z');
  Alcotest.(check (pair int int))
    "counters move on" (1, 4)
    (Vfs.Disk.reads a, Vfs.Disk.writes a);
  (* Neither write reached the source disk or the image. *)
  peek_block src 1 (block 'a');
  peek_block src 700 (block 'b');
  let c = seeded img in
  peek_block c 1 (block 'a');
  peek_block c 2 (block '\000');
  peek_block c 700 (block 'b');
  (* Restoring the image after writes winds the media back but leaves
     the counters alone. *)
  Vfs.Disk.restore a img;
  peek_block a 1 (block 'a');
  peek_block a 2 (block '\000');
  Alcotest.(check int) "restore keeps counters" 4 (Vfs.Disk.writes a);
  on a (fun d -> Vfs.Disk.write d 1 (block 'w'));
  peek_block a 1 (block 'w');
  peek_block b 1 (block 'a');
  peek_block c 1 (block 'a')

(* Same block count, different block size: the image must not fit. *)
let test_image_geometry () =
  let eng = Vsim.Engine.create () in
  let disk ~blocks ~block_size =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks ~block_size ()
  in
  let img = Vfs.Disk.snapshot (disk ~blocks:64 ~block_size:16) in
  let refuses name f =
    match f () with
    | () -> Alcotest.failf "%s accepted an image of another geometry" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (blocks, block_size) ->
      let d = disk ~blocks ~block_size in
      refuses "restore" (fun () -> Vfs.Disk.restore d img);
      refuses "seed" (fun () -> Vfs.Disk.seed d img))
    [ (64, 32); (65, 16) ]

let suite =
  [
    Alcotest.test_case "fixed latency" `Quick test_fixed_latency;
    Alcotest.test_case "persistence" `Quick test_persistence;
    Alcotest.test_case "serialization" `Quick test_serialization;
    Alcotest.test_case "seek model" `Quick test_seek_model;
    Alcotest.test_case "queue accounting" `Quick test_queue_accounting;
    Alcotest.test_case "idle queue unaccounted" `Quick
      test_queue_idle_unaccounted;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "sparse block table" `Quick test_sparse_table;
    Alcotest.test_case "snapshot restore" `Quick test_snapshot_restore;
    Alcotest.test_case "image sharing" `Quick test_image_sharing;
    Alcotest.test_case "image geometry" `Quick test_image_geometry;
  ]
