(* Address-space tests: the paged [Mem] against a flat [Bytes] model. *)

module Mem = Vkernel.Mem

let page = Mem.page_size

(* Not a whole number of pages, so the last page is partly outside. *)
let size = (3 * page) + 100
let zeros n = Bytes.make n '\000'

let check_model what m model =
  Alcotest.(check bytes) what model (Mem.read m ~pos:0 ~len:size)

(* A range biased towards the cases paging can get wrong: page
   boundaries, both ends of the space, empty and whole-space ranges and
   pieces that straddle one or more boundaries. *)
let range rng =
  let int = Vsim.Rng.int rng in
  let pos =
    match int 4 with
    | 0 -> int (size + 1)
    | 1 -> (int 4 * page) + int 9 - 4
    | 2 -> 0
    | _ -> size - int 9
  in
  let pos = max 0 (min size pos) in
  let room = size - pos in
  let len =
    match int 5 with
    | 0 -> 0
    | 1 -> min room (int 16)
    | 2 -> min room (page - 8 + int 16)
    | 3 -> int (room + 1)
    | _ -> room
  in
  (pos, len)

let random_bytes rng n = Bytes.init n (fun _ -> Char.chr (Vsim.Rng.int rng 256))

let test_random_against_model () =
  let rng = Vsim.Rng.create 12L in
  let spaces = [| Mem.create ~size; Mem.create ~size |] in
  let models = [| zeros size; zeros size |] in
  for step = 1 to 3000 do
    let s = Vsim.Rng.int rng 2 in
    let m = spaces.(s) and model = models.(s) in
    let pos, len = range rng in
    (match Vsim.Rng.int rng 7 with
    | 0 ->
        Alcotest.(check bytes) "read" (Bytes.sub model pos len)
          (Mem.read m ~pos ~len)
    | 1 ->
        let data = random_bytes rng len in
        Mem.write m ~pos data;
        Bytes.blit data 0 model pos len
    | 2 ->
        let off = Vsim.Rng.int rng 8 in
        let src = random_bytes rng (len + off + Vsim.Rng.int rng 8) in
        Mem.blit_in m ~pos src ~src_off:off ~len;
        Bytes.blit src off model pos len
    | 3 ->
        let off = Vsim.Rng.int rng 8 in
        let dst = Bytes.make (len + off + 3) '?' in
        let want = Bytes.copy dst in
        Mem.blit_out m ~pos dst ~dst_off:off ~len;
        Bytes.blit model pos want off len;
        Alcotest.(check bytes) "blit_out" want dst
    | 4 ->
        (* Zero fills are common in the mix: they must not leave a page
           shared when it already holds data. *)
        let c = if Vsim.Rng.bool rng then '\000' else Char.chr (Vsim.Rng.int rng 256) in
        Mem.fill m ~pos ~len c;
        Bytes.fill model pos len c
    | 5 ->
        (* The model's bytes, then the same with one byte changed. *)
        let want = Bytes.sub model pos len in
        Alcotest.(check bool) "equal" true (Mem.equal m ~pos want);
        if len > 0 then begin
          let i = Vsim.Rng.int rng len in
          Bytes.set want i (Char.chr ((Char.code (Bytes.get want i) + 1) land 255));
          Alcotest.(check bool) "equal, one byte changed" false
            (Mem.equal m ~pos want)
        end
    | _ ->
        let d = Vsim.Rng.int rng 2 in
        let dst_pos, dlen = range rng in
        let len = min len dlen in
        Mem.transfer ~src:m ~src_pos:pos ~dst:spaces.(d) ~dst_pos ~len;
        Bytes.blit model pos models.(d) dst_pos len);
    if step mod 50 = 0 then begin
      check_model "space 0" spaces.(0) models.(0);
      check_model "space 1" spaces.(1) models.(1)
    end
  done

(* Each overlap in a written space and in one never written, which
   holds no page table until the transfer's first store. *)
let test_overlapping_transfer () =
  let pattern = Bytes.init size (fun i -> Char.chr (i * 7 land 255)) in
  List.iter
    (fun (src_pos, dst_pos, len) ->
      List.iter
        (fun written ->
          let m = Mem.create ~size in
          let model = if written then Bytes.copy pattern else zeros size in
          if written then Mem.write m ~pos:0 pattern;
          Mem.transfer ~src:m ~src_pos ~dst:m ~dst_pos ~len;
          Bytes.blit model src_pos model dst_pos len;
          check_model
            (Fmt.str "%d -> %d (%d bytes)%s" src_pos dst_pos len
               (if written then "" else ", never written"))
            m model;
          (* The space takes stores after the transfer. *)
          Mem.write m ~pos:(dst_pos + 1) (Bytes.of_string "after");
          Bytes.blit_string "after" 0 model (dst_pos + 1) 5;
          check_model "store after the transfer" m model)
        [ true; false ])
    [
      (100, 150, page + 900);  (* forward, straddling page 0/1 *)
      (150, 100, page + 900);  (* backward *)
      (0, 1, size - 1);  (* whole space, one byte up *)
      (1, 0, size - 1);  (* and down *)
      (page - 3, page + 2, 2 * page);
      (page + 2, page - 3, 2 * page);
    ]

let test_out_of_range_messages () =
  let m = Mem.create ~size:8192 in
  let other = Mem.create ~size:100 in
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  raises "Mem.read: range 8190+4 outside space of 8192 bytes" (fun () ->
      ignore (Mem.read m ~pos:8190 ~len:4));
  raises "Mem.read: range -1+4 outside space of 8192 bytes" (fun () ->
      ignore (Mem.read m ~pos:(-1) ~len:4));
  raises "Mem.read: range 0+-1 outside space of 8192 bytes" (fun () ->
      ignore (Mem.read m ~pos:0 ~len:(-1)));
  raises "Mem.write: range 8192+1 outside space of 8192 bytes" (fun () ->
      Mem.write m ~pos:8192 (Bytes.make 1 'x'));
  raises "Mem.blit_out: range 4096+4097 outside space of 8192 bytes"
    (fun () -> Mem.blit_out m ~pos:4096 (zeros 9000) ~dst_off:0 ~len:4097);
  raises "Mem.blit_in: range 9000+0 outside space of 8192 bytes" (fun () ->
      Mem.blit_in m ~pos:9000 (zeros 1) ~src_off:0 ~len:0);
  raises "Mem.fill: range 8000+200 outside space of 8192 bytes" (fun () ->
      Mem.fill m ~pos:8000 ~len:200 'x');
  raises "Mem.transfer(src): range 50+51 outside space of 100 bytes"
    (fun () ->
      Mem.transfer ~src:other ~src_pos:50 ~dst:m ~dst_pos:0 ~len:51);
  raises "Mem.transfer(dst): range 60+50 outside space of 100 bytes"
    (fun () ->
      Mem.transfer ~src:m ~src_pos:0 ~dst:other ~dst_pos:60 ~len:50);
  raises "Mem.create: size must be positive" (fun () ->
      ignore (Mem.create ~size:0));
  (* A caller buffer too small for the range fails as [Bytes.blit] did,
     before any byte of the space changes. *)
  raises "Bytes.blit" (fun () ->
      Mem.blit_in m ~pos:4000 (Bytes.make 200 'x') ~src_off:10 ~len:200);
  Alcotest.(check bytes) "space untouched" (zeros 8192)
    (Mem.read m ~pos:0 ~len:8192)

let test_untouched_pages_read_zero () =
  let m = Mem.create ~size in
  Alcotest.(check bytes) "fresh space" (zeros size) (Mem.read m ~pos:0 ~len:size);
  Mem.write m ~pos:(page + 10) (Bytes.of_string "data");
  Alcotest.(check bytes) "page 0" (zeros page) (Mem.read m ~pos:0 ~len:page);
  Alcotest.(check bytes) "page 2 and the tail" (zeros (page + 100))
    (Mem.read m ~pos:(2 * page) ~len:(page + 100));
  Alcotest.(check string) "written bytes" "data"
    (Bytes.to_string (Mem.read m ~pos:(page + 10) ~len:4))

let test_zero_page_never_shows_writes () =
  let a = Mem.create ~size and b = Mem.create ~size in
  (* A read of an untouched page is a copy the caller may scribble on. *)
  Bytes.fill (Mem.read a ~pos:0 ~len:16) 0 16 'r';
  Mem.write a ~pos:5 (Bytes.of_string "write");
  Mem.blit_in a ~pos:(page - 2) (Bytes.of_string "blit") ~src_off:0 ~len:4;
  Mem.fill a ~pos:(2 * page) ~len:page 'f';
  Mem.transfer ~src:a ~src_pos:0 ~dst:a ~dst_pos:(3 * page) ~len:100;
  let c = Mem.create ~size in
  Alcotest.(check bytes) "other space" (zeros size) (Mem.read b ~pos:0 ~len:size);
  Alcotest.(check bytes) "space made after" (zeros size)
    (Mem.read c ~pos:0 ~len:size);
  (* And data transferred from a zero page into a written one is zeros. *)
  Mem.transfer ~src:b ~src_pos:0 ~dst:a ~dst_pos:0 ~len:page;
  Alcotest.(check bytes) "zeros transferred over data" (zeros page)
    (Mem.read a ~pos:0 ~len:page)

(* Equality over ranges that straddle one and two page boundaries,
   true and then false at each piece of the range. *)
let test_equal_across_pages () =
  let m = Mem.create ~size in
  let data = Bytes.init (2 * page) (fun i -> Char.chr (((i * 13) + 1) land 255)) in
  Alcotest.(check bool) "zeros, never written" true
    (Mem.equal m ~pos:(page - 10) (zeros (page + 20)));
  Alcotest.(check bool) "data, never written" false
    (Mem.equal m ~pos:(page - 10) data);
  Mem.write m ~pos:(page - 10) data;
  Alcotest.(check bool) "empty range" true (Mem.equal m ~pos:size Bytes.empty);
  List.iter
    (fun (pos, len) ->
      let want = Bytes.sub data (pos - (page - 10)) len in
      let what = Fmt.str "%d+%d" pos len in
      Alcotest.(check bool) what true (Mem.equal m ~pos want);
      List.iter
        (fun i ->
          let bad = Bytes.copy want in
          Bytes.set bad i (Char.chr (Char.code (Bytes.get bad i) lxor 1));
          Alcotest.(check bool) (Fmt.str "%s, byte %d changed" what i) false
            (Mem.equal m ~pos bad))
        [ 0; (page - pos) land (page - 1); len - 1 ])
    [
      (page - 10, 2 * page);  (* three pages *)
      (page - 5, 10);  (* one boundary *)
      (page, page);  (* exactly one page *)
      (2 * page - 1, 2);
    ];
  Alcotest.check_raises "out of range"
    (Invalid_argument "Mem.equal: range 3170+4 outside space of 3172 bytes")
    (fun () -> ignore (Mem.equal m ~pos:(size - 2) (zeros 4)))

(* A space never written reads, zero-fills and transfers out zeros, and
   none of those stores anything: such a space still holds no page and
   no table, only its record (a 256 KB space's table alone would be 257
   words). *)
let test_never_written () =
  let big = 256 * 1024 in
  let m = Mem.create ~size:big and other = Mem.create ~size:big in
  Mem.fill m ~pos:0 ~len:big '\000';
  Mem.transfer ~src:m ~src_pos:0 ~dst:other ~dst_pos:0 ~len:big;
  Mem.transfer ~src:m ~src_pos:0 ~dst:m ~dst_pos:1 ~len:(big - 1);
  List.iter
    (fun (what, m) ->
      let words = Obj.reachable_words (Obj.repr m) in
      if words > 8 then
        Alcotest.failf "%s: a never-written space holds %d words" what words)
    [ ("filled and transferred", m); ("transfer destination", other) ];
  Alcotest.(check bytes) "read across pages" (zeros (page + 2))
    (Mem.read m ~pos:(page - 1) ~len:(page + 2));
  Alcotest.(check bytes) "read in a page" (zeros 5) (Mem.read m ~pos:7 ~len:5);
  let dst = Bytes.make 10 '?' in
  Mem.blit_out m ~pos:(page - 4) dst ~dst_off:1 ~len:8;
  Alcotest.(check string) "blit_out" "?\000\000\000\000\000\000\000\000?"
    (Bytes.to_string dst);
  (* Zeros transferred from it over written data replace the data. *)
  Mem.fill other ~pos:0 ~len:(3 * page) 'x';
  Mem.transfer ~src:m ~src_pos:(page + 3) ~dst:other ~dst_pos:10
    ~len:(page + 7);
  Alcotest.(check bytes) "zeros over data" (zeros (page + 7))
    (Mem.read other ~pos:10 ~len:(page + 7));
  Alcotest.(check string) "data around them" "xx"
    (Bytes.to_string (Mem.read other ~pos:9 ~len:1)
    ^ Bytes.to_string (Mem.read other ~pos:(page + 17) ~len:1))

let test_host_footprint () =
  let words =
    Util.direct_major_words (fun () ->
        let tb = Vworkload.Testbed.create ~hosts:3 () in
        let pids =
          List.init 8 (fun i ->
              let k = (Vworkload.Testbed.host tb (1 + (i mod 3))).kernel in
              (k, Vkernel.Kernel.spawn k (fun _ -> ())))
        in
        List.iter
          (fun (k, pid) ->
            Alcotest.(check int) "default-size space" (256 * 1024)
              (Mem.size (Vkernel.Kernel.memory k pid)))
          pids;
        let d =
          Vfs.Disk.create tb.eng ~blocks:16384 ~block_size:512 ()
        in
        (tb, d))
  in
  (* Eager zeroing costs ~262,000 words here: 8 x 256 KB spaces plus
     the disk's 16,384-slot table. *)
  Alcotest.(check int) "testbed + 8 spaces + disk: direct major words" 0 words;
  (* The store makes the table and two pages, all minor blocks. *)
  Alcotest.(check int) "a 1,000-byte store into a fresh space" 0
    (Util.direct_major_words (fun () ->
         let m = Mem.create ~size:(256 * 1024) in
         Mem.write m ~pos:100 (Bytes.make 1000 's');
         m))

let suite =
  [
    Alcotest.test_case "random ops match a flat model" `Quick
      test_random_against_model;
    Alcotest.test_case "overlapping transfer" `Quick test_overlapping_transfer;
    Alcotest.test_case "out-of-range messages" `Quick
      test_out_of_range_messages;
    Alcotest.test_case "untouched pages read zero" `Quick
      test_untouched_pages_read_zero;
    Alcotest.test_case "zero page never shows writes" `Quick
      test_zero_page_never_shows_writes;
    Alcotest.test_case "equal across pages" `Quick test_equal_across_pages;
    Alcotest.test_case "never-written space" `Quick test_never_written;
    Alcotest.test_case "host footprint" `Quick test_host_footprint;
  ]
