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
  ]
