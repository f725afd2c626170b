(* Filesystem tests, including a model-based random-operations check. *)

let with_fs ?(blocks = 2048) f =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks
      ~block_size:Vfs.Fs.block_size ()
  in
  let result = ref None in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~ninodes:64 ();
        match Vfs.Fs.mount disk with
        | Error e -> Alcotest.failf "mount: %s" (Vfs.Fs.error_to_string e)
        | Ok fs -> result := Some (f fs))
  in
  Vsim.Engine.run eng;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "fs test did not complete"

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs error: %s" (Vfs.Fs.error_to_string e)

let test_create_lookup_unlink () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "hello.txt") in
      Alcotest.(check (option int)) "lookup" (Some inum)
        (Vfs.Fs.lookup fs "hello.txt");
      Alcotest.(check (list (pair string int))) "list" [ ("hello.txt", inum) ]
        (Vfs.Fs.list fs);
      (match Vfs.Fs.create fs "hello.txt" with
      | Error Vfs.Fs.Already_exists -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Vfs.Fs.error_to_string e)
      | Ok _ -> Alcotest.fail "duplicate create succeeded");
      get (Vfs.Fs.unlink fs "hello.txt");
      Alcotest.(check (option int)) "gone" None (Vfs.Fs.lookup fs "hello.txt");
      match Vfs.Fs.unlink fs "hello.txt" with
      | Error Vfs.Fs.Not_found -> ()
      | _ -> Alcotest.fail "double unlink")

let test_write_read_roundtrip () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "data") in
      let payload =
        Bytes.init 3000 (fun i -> Vworkload.Testbed.pattern_byte i)
      in
      get (Vfs.Fs.write fs ~inum ~pos:0 payload);
      Alcotest.(check int) "size" 3000 (get (Vfs.Fs.size fs ~inum));
      let back = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:3000) in
      Alcotest.(check bytes) "roundtrip" payload back;
      (* Unaligned read in the middle. *)
      let mid = get (Vfs.Fs.read fs ~inum ~pos:700 ~len:900) in
      Alcotest.(check bytes) "unaligned" (Bytes.sub payload 700 900) mid;
      (* Read past EOF is short. *)
      let tail = get (Vfs.Fs.read fs ~inum ~pos:2900 ~len:500) in
      Alcotest.(check int) "short read" 100 (Bytes.length tail))

let test_holes_read_zero () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "sparse") in
      get (Vfs.Fs.write fs ~inum ~pos:5000 (Bytes.of_string "end"));
      Alcotest.(check int) "size covers hole" 5003 (get (Vfs.Fs.size fs ~inum));
      let hole = get (Vfs.Fs.read fs ~inum ~pos:1000 ~len:100) in
      Alcotest.(check bytes) "zeros" (Bytes.make 100 '\000') hole;
      (* Reading into a space overwrites what was there, holes included,
         and stops at the end of the file. *)
      let mem = Vkernel.Mem.create ~size:8192 in
      Vkernel.Mem.fill mem ~pos:0 ~len:8192 'x';
      Alcotest.(check int) "bytes read" 1003
        (get (Vfs.Fs.read_into fs ~inum ~pos:4000 ~len:2000 mem ~at:100));
      Alcotest.(check string) "hole then data, rest untouched"
        (String.make 100 'x' ^ String.make 1000 '\000' ^ "end" ^ "xx")
        (Bytes.to_string (Vkernel.Mem.read mem ~pos:0 ~len:1105)))

let test_big_file_indirect () =
  with_fs ~blocks:4096 (fun fs ->
      let inum = get (Vfs.Fs.create fs "big") in
      (* 64 KB spans the indirect block (12 direct blocks = 6 KB). *)
      let payload = Bytes.init 65536 (fun i -> Vworkload.Testbed.pattern_byte (i * 5)) in
      get (Vfs.Fs.write fs ~inum ~pos:0 payload);
      let back = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:65536) in
      Alcotest.(check bool) "64KB via indirect blocks" true
        (Bytes.equal payload back))

let test_max_file_size () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "huge") in
      match
        Vfs.Fs.write fs ~inum ~pos:Vfs.Fs.max_file_size (Bytes.make 1 'x')
      with
      | Error Vfs.Fs.Too_big -> ()
      | _ -> Alcotest.fail "write past max size accepted")

let test_no_space () =
  with_fs ~blocks:32 (fun fs ->
      let inum = get (Vfs.Fs.create fs "filler") in
      match Vfs.Fs.write fs ~inum ~pos:0 (Bytes.make 30000 'x') with
      | Error Vfs.Fs.No_space -> ()
      | Ok () -> Alcotest.fail "filled a disk that is too small"
      | Error e -> Alcotest.failf "wrong error: %s" (Vfs.Fs.error_to_string e))

let test_name_rules () =
  with_fs (fun fs ->
      (match Vfs.Fs.create fs (String.make 40 'n') with
      | Error Vfs.Fs.Name_too_long -> ()
      | _ -> Alcotest.fail "long name accepted");
      match Vfs.Fs.create fs "" with
      | Error Vfs.Fs.Bad_argument -> ()
      | _ -> Alcotest.fail "empty name accepted")

let test_blocks_freed_on_unlink () =
  with_fs ~blocks:64 (fun fs ->
      (* Repeatedly creating and unlinking must not leak space. *)
      for _ = 1 to 10 do
        let inum = get (Vfs.Fs.create fs "cycle") in
        get (Vfs.Fs.write fs ~inum ~pos:0 (Bytes.make 8192 'c'));
        get (Vfs.Fs.unlink fs "cycle")
      done)

let test_remount () =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:256
      ~block_size:Vfs.Fs.block_size ()
  in
  let ok = ref false in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~ninodes:16 ();
        let fs = get (Vfs.Fs.mount disk) in
        let inum = get (Vfs.Fs.create fs "persist") in
        get (Vfs.Fs.write fs ~inum ~pos:0 (Bytes.of_string "durable"));
        (* Fresh mount over the same disk must see the file. *)
        let fs2 = get (Vfs.Fs.mount disk) in
        let inum2 = Option.get (Vfs.Fs.lookup fs2 "persist") in
        let back = get (Vfs.Fs.read fs2 ~inum:inum2 ~pos:0 ~len:7) in
        ok := Bytes.to_string back = "durable")
  in
  Vsim.Engine.run eng;
  Alcotest.(check bool) "remount sees data" true !ok

let test_unformatted () =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:64
      ~block_size:Vfs.Fs.block_size ()
  in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        match Vfs.Fs.mount disk with
        | Error Vfs.Fs.Not_formatted -> ()
        | Error e -> Alcotest.failf "wrong error: %s" (Vfs.Fs.error_to_string e)
        | Ok _ -> Alcotest.fail "mounted garbage")
  in
  Vsim.Engine.run eng

let test_cache_behaviour () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "cached") in
      get (Vfs.Fs.write fs ~inum ~pos:0 (Bytes.make 512 'c'));
      let misses_before = Vfs.Fs.cache_misses fs in
      let (_ : Bytes.t) = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:512) in
      let (_ : Bytes.t) = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:512) in
      Alcotest.(check int) "no extra misses on cached reads" misses_before
        (Vfs.Fs.cache_misses fs);
      Vfs.Fs.evict_cache fs;
      let (_ : Bytes.t) = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:512) in
      Alcotest.(check bool) "miss after eviction" true
        (Vfs.Fs.cache_misses fs > misses_before))

(* Model-based: random writes and reads against a reference byte array. *)
let test_model_based =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 30)
        (pair (int_bound 20_000) (int_range 1 2_000)))
  in
  Util.qtest ~count:20 "random write/read matches reference model"
    (QCheck.make op_gen) (fun ops ->
      with_fs ~blocks:4096 (fun fs ->
          let inum = get (Vfs.Fs.create fs "model") in
          let reference = Bytes.make Vfs.Fs.max_file_size '\000' in
          let ref_size = ref 0 in
          List.for_all
            (fun (pos, len) ->
              let pos = pos mod (Vfs.Fs.max_file_size - len) in
              let data =
                Bytes.init len (fun i -> Vworkload.Testbed.pattern_byte (pos + i))
              in
              match Vfs.Fs.write fs ~inum ~pos data with
              | Error _ -> true (* out of space: fine, stop checking *)
              | Ok () ->
                  Bytes.blit data 0 reference pos len;
                  ref_size := max !ref_size (pos + len);
                  let back = get (Vfs.Fs.read fs ~inum ~pos:0 ~len:!ref_size) in
                  Bytes.equal back (Bytes.sub reference 0 !ref_size))
            ops))

(* Reads hand out the caller's own bytes: scribbling on what [read]
   returned, on what [read_into] filled, or on a buffer after [write]
   took it leaves the file unchanged, whether its blocks come from the
   cache or, with the data cache off, from the disk. *)
let test_read_aliasing () =
  with_fs (fun fs ->
      let inum = get (Vfs.Fs.create fs "alias") in
      let data = Bytes.init 1300 (fun i -> Vworkload.Testbed.pattern_byte i) in
      let payload = Bytes.copy data in
      get (Vfs.Fs.write fs ~inum ~pos:0 payload);
      Bytes.fill payload 0 1300 'w';
      List.iter
        (fun cache_on ->
          Vfs.Fs.set_cache_enabled fs cache_on;
          let label what = Printf.sprintf "%s, cache %b" what cache_on in
          List.iter
            (fun (pos, len) ->
              let want = Bytes.sub data pos len in
              let got = get (Vfs.Fs.read fs ~inum ~pos ~len) in
              Alcotest.(check bytes) (label "read") want got;
              Bytes.fill got 0 len 'r';
              Alcotest.(check bytes) (label "read after scribbling") want
                (get (Vfs.Fs.read fs ~inum ~pos ~len));
              let mem = Vkernel.Mem.create ~size:4096 in
              Alcotest.(check int) (label "read_into") len
                (get (Vfs.Fs.read_into fs ~inum ~pos ~len mem ~at:0));
              Alcotest.(check bytes) (label "read_into") want
                (Vkernel.Mem.read mem ~pos:0 ~len);
              Vkernel.Mem.fill mem ~pos:0 ~len 'm';
              Alcotest.(check bytes) (label "read after scribbling on memory")
                want
                (get (Vfs.Fs.read fs ~inum ~pos ~len)))
            [ (0, 512); (100, 300); (0, 1300) ])
        [ true; false ])

(* ---- fsck detection ----

   Each case formats a 253-block file system with 16 inodes (its last
   bitmap byte is part-filled: bits 253-255 are not blocks), writes two
   files through the API, corrupts the disk through [Vfs.Disk] writes,
   remounts (so nothing is cached) and pins the exact [Fs.check] list.
   The layout is deterministic: superblock 0, bitmap 1, inode table 2-3
   and data from 4.  The root directory's entries live in block 4; "a"
   is inode 1 with direct blocks 5-7; "b" is inode 2 with direct blocks
   8-19, its indirect table at 20, and 21-22 behind it.  A journal, when
   there is one, takes the disk's last [journal_blocks] blocks. *)

let raw32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF
let put32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* Rewrite block [blk] through [f], as a disk write. *)
let patch disk blk f =
  let b = Vfs.Disk.peek disk blk in
  f b;
  Vfs.Disk.write disk blk b

(* Inode fields by byte offset: used flag 0, size 4, direct pointer [i]
   at 8 + 4i, indirect table 56. *)
let size_field = 4
let direct_field i = 8 + (4 * i)
let indirect_field = 56

let set_inode disk inum field v =
  patch disk (2 + (inum / 8)) (fun b -> put32 b (((inum mod 8) * 64) + field) v)

let set_bit disk blk on =
  patch disk 1 (fun b ->
      let v = Char.code (Bytes.get b (blk / 8)) and m = 1 lsl (blk mod 8) in
      Bytes.set b (blk / 8) (Char.chr (if on then v lor m else v land lnot m)))

(* Point directory entry [slot] (0 is "a", 1 is "b") at [inum]. *)
let set_dirent disk slot inum = patch disk 4 (fun b -> put32 b (32 * slot) inum)

(* Indirect pointer [i] of "b"'s table. *)
let set_indirect disk i v = patch disk 20 (fun b -> put32 b (4 * i) v)

let fsck_after ?(journal_blocks = 0) corrupt =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:253
      ~block_size:Vfs.Fs.block_size ()
  in
  let out = ref None in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~journal_blocks ~ninodes:16 ();
        let fs = get (Vfs.Fs.mount disk) in
        List.iter
          (fun (name, blocks) ->
            let inum = get (Vfs.Fs.create fs name) in
            get
              (Vfs.Fs.write fs ~inum ~pos:0
                 (Bytes.make (blocks * Vfs.Fs.block_size) 'd')))
          [ ("a", 3); ("b", 14) ];
        Alcotest.(check (list string)) "clean before corruption" []
          (Vfs.Fs.check fs);
        (* The layout the corruptions assume. *)
        let inode = Vfs.Disk.peek disk 2 in
        Alcotest.(check (list int)) "layout" [ 4; 5; 8; 20; 21 ]
          [
            raw32 inode (direct_field 0);
            raw32 inode (64 + direct_field 0);
            raw32 inode (128 + direct_field 0);
            raw32 inode (128 + indirect_field);
            raw32 (Vfs.Disk.peek disk 20) 0;
          ];
        corrupt disk;
        out := Some (Vfs.Fs.check (get (Vfs.Fs.mount disk))))
  in
  Vsim.Engine.run eng;
  Option.get !out

let fsck_case name ?journal_blocks corrupt expect =
  Alcotest.test_case ("fsck " ^ name) `Quick (fun () ->
      Alcotest.(check (list string)) "problems, in order" expect
        (fsck_after ?journal_blocks corrupt))

let fsck_cases =
  [
    fsck_case "impossible size"
      (fun d -> set_inode d 1 size_field (Vfs.Fs.max_file_size + 1))
      [ "inode 1: impossible size 71681" ];
    fsck_case "pointer outside the disk"
      (fun d ->
        set_inode d 1 (direct_field 3) 300;
        set_inode d 1 indirect_field 5000;
        set_indirect d 2 1000)
      [
        "inode 1: direct pointer points outside the disk (block 300)";
        "inode 1: indirect table points outside the disk (block 5000)";
        "inode 2: indirect pointer points outside the disk (block 1000)";
      ];
    fsck_case "claim on a reserved block"
      (fun d ->
        set_inode d 1 (direct_field 3) 2;
        set_indirect d 2 1)
      [
        "inode 1: direct pointer claims reserved block 2";
        "inode 2: indirect pointer claims reserved block 1";
      ];
    fsck_case "claim on a journal block" ~journal_blocks:32
      (fun d -> set_inode d 1 (direct_field 3) 250)
      [ "inode 1: direct pointer claims reserved block 250" ];
    fsck_case "double claim (direct)"
      (fun d -> set_inode d 2 (direct_field 0) 5)
      [
        "block 5 claimed by both inode 1 and inode 2";
        "block 8 marked used but referenced by no inode (leak)";
      ];
    fsck_case "double claim (indirect)"
      (fun d -> set_indirect d 0 6)
      [
        "block 6 claimed by both inode 1 and inode 2";
        "block 21 marked used but referenced by no inode (leak)";
      ];
    fsck_case "in use but marked free"
      (fun d -> set_bit d 7 false)
      [ "block 7 in use by inode 1 but marked free" ];
    fsck_case "leaked block"
      (fun d -> set_bit d 100 true)
      [ "block 100 marked used but referenced by no inode (leak)" ];
    fsck_case "reserved block marked free"
      (fun d -> set_bit d 3 false)
      [ "reserved block 3 marked free in the bitmap" ];
    fsck_case "journal block marked free" ~journal_blocks:32
      (fun d -> set_bit d 252 false)
      [ "reserved block 252 marked free in the bitmap" ];
    fsck_case "dirent to a free inode"
      (fun d -> set_dirent d 0 5)
      [ "dirent \"a\" points to free inode 5" ];
    fsck_case "dirent outside the inode table"
      (fun d -> set_dirent d 1 500)
      [ "dirent \"b\" points outside the inode table (500)" ];
    (* Every section at once: inodes in inode order, then the bitmap in
       block order (two problems in one bitmap byte, two in another, and
       bits past the disk's end, in its last byte and beyond, that are
       not blocks), then directory entries in slot order. *)
    fsck_case "order across classes"
      (fun d ->
        set_inode d 2 size_field (-1);
        set_inode d 1 (direct_field 4) 21;
        set_bit d 3 false;
        set_bit d 7 false;
        set_bit d 101 true;
        set_bit d 100 true;
        set_bit d 254 true;
        set_bit d 300 true;
        set_dirent d 1 5;
        set_dirent d 0 16)
      [
        "inode 2: impossible size 4294967295";
        "block 21 claimed by both inode 1 and inode 2";
        "reserved block 3 marked free in the bitmap";
        "block 7 in use by inode 1 but marked free";
        "block 100 marked used but referenced by no inode (leak)";
        "block 101 marked used but referenced by no inode (leak)";
        "dirent \"a\" points outside the inode table (16)";
        "dirent \"b\" points to free inode 5";
      ];
  ]

(* A 9,000-block disk has a three-block bitmap (blocks 1-3; inode table
   4-5): fsck compares it a block at a time, so problems in every block,
   and bits past the disk's end in the last, must come out in block
   order. *)
let test_fsck_bitmap_blocks () =
  let eng = Vsim.Engine.create () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:9000
      ~block_size:Vfs.Fs.block_size ()
  in
  let bits_per_block = Vfs.Fs.block_size * 8 in
  let set_bit blk on =
    let i = blk mod bits_per_block / 8 and m = 1 lsl (blk mod 8) in
    patch disk (1 + (blk / bits_per_block)) (fun b ->
        let v = Char.code (Bytes.get b i) in
        Bytes.set b i (Char.chr (if on then v lor m else v land lnot m)))
  in
  let out = ref None in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng (fun () ->
        Vfs.Fs.format disk ~ninodes:16 ();
        Alcotest.(check (list string)) "clean before corruption" []
          (Vfs.Fs.check (get (Vfs.Fs.mount disk)));
        set_bit 8999 true;
        set_bit 9001 true;
        set_bit 5000 true;
        set_bit 4 false;
        set_bit 4100 true;
        out := Some (Vfs.Fs.check (get (Vfs.Fs.mount disk))))
  in
  Vsim.Engine.run eng;
  Alcotest.(check (list string)) "problems, in order"
    [
      "reserved block 4 marked free in the bitmap";
      "block 4100 marked used but referenced by no inode (leak)";
      "block 5000 marked used but referenced by no inode (leak)";
      "block 8999 marked used but referenced by no inode (leak)";
    ]
    (Option.get !out)

let suite =
  [
    Alcotest.test_case "create/lookup/unlink" `Quick test_create_lookup_unlink;
    Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
    Alcotest.test_case "holes read zero" `Quick test_holes_read_zero;
    Alcotest.test_case "big file (indirect)" `Quick test_big_file_indirect;
    Alcotest.test_case "max file size" `Quick test_max_file_size;
    Alcotest.test_case "no space" `Quick test_no_space;
    Alcotest.test_case "name rules" `Quick test_name_rules;
    Alcotest.test_case "unlink frees blocks" `Quick test_blocks_freed_on_unlink;
    Alcotest.test_case "remount" `Quick test_remount;
    Alcotest.test_case "unformatted disk" `Quick test_unformatted;
    Alcotest.test_case "cache behaviour" `Quick test_cache_behaviour;
    test_model_based;
    Alcotest.test_case "read aliasing" `Quick test_read_aliasing;
    Alcotest.test_case "fsck across bitmap blocks" `Quick
      test_fsck_bitmap_blocks;
  ]
  @ fsck_cases
