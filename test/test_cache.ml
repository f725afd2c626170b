(* The workstation-side block cache and the Io file-access API:
   hit/miss accounting and LRU order, write-through vs write-back
   visibility, reopen invalidation after a remote writer, determinism,
   unaligned access, and correctness under packet loss. *)

module K = Vkernel.Kernel
module Io = Vfs.Client.Io

module TB = Vworkload.Testbed

let rig ?(files = [ ("data", 8 * 512) ]) () =
  let tb = Util.testbed ~hosts:3 () in
  let fs = Vworkload.Testbed.make_test_fs tb ~files () in
  let server = Vfs.Server.start (TB.kernel tb 1) fs () in
  ignore server;
  (tb, fs)

let get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "client: %s" (Vfs.Client.error_to_string e)

let fs_get = function
  | Ok v -> v
  | Error e -> Alcotest.failf "fs: %a" Vfs.Fs.pp_error e

let make_io tb ~host ~capacity ~policy =
  let k = TB.kernel tb host in
  let conn = get (Vfs.Client.connect k ()) in
  let cache =
    Vfs.Cache.create tb.Vworkload.Testbed.eng ~host
      { Vfs.Cache.capacity_blocks = capacity; policy }
  in
  (Io.make ~cache conn, cache)

let expect_block b = Bytes.init 512 (fun i -> Util.pattern ((b * 512) + i))

let check_stats name cache ~hits ~misses ~evictions =
  let s = Vfs.Cache.stats cache in
  Alcotest.(check int) (name ^ ": hits") hits s.Vfs.Cache.hits;
  Alcotest.(check int) (name ^ ": misses") misses s.Vfs.Cache.misses;
  Alcotest.(check int) (name ^ ": evictions") evictions s.Vfs.Cache.evictions

(* LRU accounting: capacity 2, access b0 b1 b1 b2 b0 b1.  The cyclic
   tail (b2 b0 b1) must evict the victim just before its reuse: 5
   misses, 1 hit, 3 evictions. *)
let test_lru_order () =
  let tb, _ = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, cache =
        make_io tb ~host:2 ~capacity:2 ~policy:Vfs.Cache.Write_through
      in
      let f = get (Io.open_file io "data") in
      let read b =
        let got = get (Io.read f ~off:(b * 512) ~len:512) in
        Alcotest.(check bytes)
          (Printf.sprintf "block %d content" b)
          (expect_block b) got
      in
      List.iter read [ 0; 1; 1; 2; 0; 1 ];
      check_stats "lru" cache ~hits:1 ~misses:5 ~evictions:3)

(* Write-through: the server's file system sees the write immediately.
   Write-back: only after flush (or close). *)
let test_write_policies () =
  let check ~policy ~visible_before_flush =
    let tb, fs = rig () in
    let inum =
      match Vfs.Fs.lookup fs "data" with
      | Some i -> i
      | None -> Alcotest.fail "data file missing"
    in
    Util.run_as_process tb ~host:2 (fun _ ->
        let io, cache = make_io tb ~host:2 ~capacity:8 ~policy in
        let f = get (Io.open_file io "data") in
        let fresh = Bytes.make 512 'X' in
        let n = get (Io.write f ~off:(2 * 512) fresh) in
        Alcotest.(check int) "bytes written" 512 n;
        let server_now =
          fs_get (Vfs.Fs.read fs ~inum ~pos:(2 * 512) ~len:512)
        in
        Alcotest.(check bool)
          (Vfs.Cache.policy_to_string policy ^ ": visible before flush")
          visible_before_flush
          (Bytes.equal server_now fresh);
        (* The writer's own cache serves the new data either way. *)
        Alcotest.(check bytes)
          "cached read-back" fresh
          (get (Io.read f ~off:(2 * 512) ~len:512));
        get (Io.flush f);
        let server_after =
          fs_get (Vfs.Fs.read fs ~inum ~pos:(2 * 512) ~len:512)
        in
        Alcotest.(check bytes) "visible after flush" fresh server_after;
        let s = Vfs.Cache.stats cache in
        Alcotest.(check int)
          "write-backs"
          (if policy = Vfs.Cache.Write_back then 1 else 0)
          s.Vfs.Cache.writebacks)
  in
  check ~policy:Vfs.Cache.Write_through ~visible_before_flush:true;
  check ~policy:Vfs.Cache.Write_back ~visible_before_flush:false

(* Open-close consistency: a cached reader does not see a remote write
   until it reopens the file; the reopen drops the stale block. *)
let test_reopen_invalidation () =
  let tb, _ = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, cache =
        make_io tb ~host:2 ~capacity:8 ~policy:Vfs.Cache.Write_through
      in
      let f = get (Io.open_file io "data") in
      Alcotest.(check bytes)
        "initial content" (expect_block 0)
        (get (Io.read f ~off:0 ~len:512));
      (* A second workstation overwrites block 0 through the plain
         stubs while we hold the file cached. *)
      let k3 = TB.kernel tb 3 in
      let done_ = ref false in
      let (_ : Vkernel.Pid.t) =
        K.spawn k3 ~name:"remote-writer" (fun pid ->
            let mem = K.memory k3 pid in
            let conn = get (Vfs.Client.connect k3 ()) in
            let h = get (Vfs.Client.open_file conn "data") in
            Vkernel.Mem.write mem ~pos:0 (Bytes.make 512 'R');
            let (_ : int) =
              get (Vfs.Client.write_page conn h ~block:0 ~buf:0 ~count:512)
            in
            get (Vfs.Client.close_file conn h);
            done_ := true)
      in
      (* Let the writer run: block until its write is visible by doing
         enough of our own IPC. *)
      Vsim.Proc.sleep (Vsim.Time.ms 100);
      Alcotest.(check bool) "remote writer ran" true !done_;
      (* Still the old data: cached, and we have not reopened. *)
      Alcotest.(check bytes)
        "stale read before reopen" (expect_block 0)
        (get (Io.read f ~off:0 ~len:512));
      get (Io.close f);
      let f2 = get (Io.open_file io "data") in
      Alcotest.(check bytes)
        "fresh after reopen" (Bytes.make 512 'R')
        (get (Io.read f2 ~off:0 ~len:512));
      let s = Vfs.Cache.stats cache in
      Alcotest.(check bool) "stale block invalidated" true
        (s.Vfs.Cache.invalidations >= 1))

(* A local write whose reply is the expected successor version must not
   resurrect blocks cached *before* a remote write: only blocks tagged
   with the pre-write version are known-current.  Scenario: cache block
   5 at v; a remote writer bumps the file to v+1; we observe v+1 by
   fetching block 3; our own write then yields v+2 — block 5 (still
   tagged v) must stay stale and be refetched, not get retagged. *)
let test_no_stale_retag () =
  let tb, _ = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, _cache =
        make_io tb ~host:2 ~capacity:8 ~policy:Vfs.Cache.Write_through
      in
      let f = get (Io.open_file io "data") in
      Alcotest.(check bytes)
        "block 5 cached" (expect_block 5)
        (get (Io.read f ~off:(5 * 512) ~len:512));
      let k3 = TB.kernel tb 3 in
      let done_ = ref false in
      let (_ : Vkernel.Pid.t) =
        K.spawn k3 ~name:"remote-writer" (fun pid ->
            let mem = K.memory k3 pid in
            let conn = get (Vfs.Client.connect k3 ()) in
            let h = get (Vfs.Client.open_file conn "data") in
            Vkernel.Mem.write mem ~pos:0 (Bytes.make 512 'R');
            let (_ : int) =
              get (Vfs.Client.write_page conn h ~block:5 ~buf:0 ~count:512)
            in
            get (Vfs.Client.close_file conn h);
            done_ := true)
      in
      Vsim.Proc.sleep (Vsim.Time.ms 100);
      Alcotest.(check bool) "remote writer ran" true !done_;
      (* Observe the remote writer's version on a different block. *)
      Alcotest.(check bytes)
        "block 3 fetched" (expect_block 3)
        (get (Io.read f ~off:(3 * 512) ~len:512));
      (* Our own write: reply version is the successor of what we saw. *)
      let (_ : int) = get (Io.write f ~off:0 (Bytes.make 512 'W')) in
      (* Block 5 must now be treated as stale and refetched. *)
      Alcotest.(check bytes)
        "remote write visible, not stale cache" (Bytes.make 512 'R')
        (get (Io.read f ~off:(5 * 512) ~len:512)))

(* A failed flush must leave unpushed blocks dirty so it can be retried;
   clearing dirty bits up front would make the next flush report Ok and
   silently lose the writes.  We force the failure by closing the
   server-side handle behind the Io layer's back. *)
let test_flush_failure_keeps_dirty () =
  let tb, _ = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, _cache =
        make_io tb ~host:2 ~capacity:8 ~policy:Vfs.Cache.Write_back
      in
      let f = get (Io.open_file io "data") in
      let (_ : int) = get (Io.write f ~off:0 (Bytes.make 512 'A')) in
      let (_ : int) = get (Io.write f ~off:512 (Bytes.make 512 'B')) in
      get (Vfs.Client.close_file (Io.conn io) (Io.file_handle f));
      (match Io.flush f with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "flush against dead handle succeeded");
      (* The dirty blocks survived the failure: a retry still attempts
         (and fails) the push instead of reporting a silent Ok. *)
      match Io.flush f with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "retried flush lost the dirty blocks")

(* Opening the same file twice through one Io is legal: closing one
   handle must not orphan the other's dirty blocks — eviction write-back
   resolves to any still-open handle. *)
let test_double_open () =
  let tb, fs = rig () in
  let inum =
    match Vfs.Fs.lookup fs "data" with
    | Some i -> i
    | None -> Alcotest.fail "data file missing"
  in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, _cache =
        make_io tb ~host:2 ~capacity:2 ~policy:Vfs.Cache.Write_back
      in
      let f1 = get (Io.open_file io "data") in
      let f2 = get (Io.open_file io "data") in
      get (Io.close f2);
      (* Dirty three blocks through f1: inserting the third evicts the
         LRU dirty block, whose write-back needs a live handle. *)
      for b = 0 to 2 do
        let (_ : int) =
          get
            (Io.write f1 ~off:(b * 512)
               (Bytes.make 512 (Char.chr (Char.code 'A' + b))))
        in
        ()
      done;
      get (Io.close f1);
      for b = 0 to 2 do
        Alcotest.(check bytes)
          (Printf.sprintf "block %d reached the server" b)
          (Bytes.make 512 (Char.chr (Char.code 'A' + b)))
          (fs_get (Vfs.Fs.read fs ~inum ~pos:(b * 512) ~len:512))
      done)

(* Session recovery follows the name, not the inode.  While a
   write-back client holds a dirty block of "data", another workstation
   deletes the file, creates "other" (which takes the freed inode) and
   recreates "data".  The client's close finds its handle dead, reopens
   "data" by name and lands the block there; "other" stays empty and
   the old inode's blocks leave the cache. *)
let test_recovery_follows_name () =
  let tb, fs = rig () in
  let lookup name =
    match Vfs.Fs.lookup fs name with
    | Some i -> i
    | None -> Alcotest.failf "%s missing" name
  in
  let old_inum = lookup "data" in
  Util.run_as_process tb ~host:2 (fun _ ->
      let conn = get (Vfs.Client.connect (TB.kernel tb 2) ()) in
      let cache =
        Vfs.Cache.create tb.Vworkload.Testbed.eng ~host:2
          { Vfs.Cache.capacity_blocks = 8; policy = Vfs.Cache.Write_back }
      in
      let io = Io.make ~cache ~recover:true conn in
      let f = get (Io.open_file io "data") in
      let mine = Bytes.make 512 'A' in
      let (_ : int) = get (Io.write f ~off:512 mine) in
      let k3 = TB.kernel tb 3 in
      let done_ = ref false in
      let (_ : Vkernel.Pid.t) =
        K.spawn k3 ~name:"replacer" (fun _ ->
            let conn = get (Vfs.Client.connect k3 ()) in
            get (Vfs.Client.delete_file conn "data");
            get (Vfs.Client.close_file conn
                   (get (Vfs.Client.create_file conn "other")));
            get (Vfs.Client.close_file conn
                   (get (Vfs.Client.create_file conn "data")));
            done_ := true)
      in
      Vsim.Proc.sleep (Vsim.Time.ms 100);
      Alcotest.(check bool) "replacer ran" true !done_;
      Alcotest.(check int) "other took the freed inode" old_inum
        (lookup "other");
      get (Io.close f);
      let new_inum = lookup "data" in
      Alcotest.(check bool) "data was recreated under a new inode" true
        (new_inum <> old_inum);
      Alcotest.(check bytes)
        "the dirty block landed in the new data" mine
        (fs_get (Vfs.Fs.read fs ~inum:new_inum ~pos:512 ~len:512));
      Alcotest.(check int) "other is untouched" 0
        (fs_get (Vfs.Fs.size fs ~inum:old_inum));
      Alcotest.(check bool) "the old inode's block left the cache" true
        (Option.is_none
           (Vfs.Cache.find cache ~inum:old_inum ~block:1 ~version:0)))

(* Regression: a write-back flush whose reply version jumps by more than
   one (a remote writer got in between) must still retag the block just
   pushed — the server stored exactly these bytes, so they are current
   at the reply version no matter how big the gap.  The old code only
   retagged on the expected-successor reply and then refetched its own
   data from the server. *)
let test_writeback_retag_gap () =
  let tb, _ = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, cache =
        make_io tb ~host:2 ~capacity:8 ~policy:Vfs.Cache.Write_back
      in
      let f = get (Io.open_file io "data") in
      (* Dirty block 0 locally; nothing reaches the server yet. *)
      let (_ : int) = get (Io.write f ~off:0 (Bytes.make 512 'W')) in
      (* A remote writer bumps the file version behind our back. *)
      let k3 = TB.kernel tb 3 in
      let done_ = ref false in
      let (_ : Vkernel.Pid.t) =
        K.spawn k3 ~name:"remote-writer" (fun pid ->
            let mem = K.memory k3 pid in
            let conn = get (Vfs.Client.connect k3 ()) in
            let h = get (Vfs.Client.open_file conn "data") in
            Vkernel.Mem.write mem ~pos:0 (Bytes.make 512 'R');
            let (_ : int) =
              get (Vfs.Client.write_page conn h ~block:5 ~buf:0 ~count:512)
            in
            get (Vfs.Client.close_file conn h);
            done_ := true)
      in
      Vsim.Proc.sleep (Vsim.Time.ms 100);
      Alcotest.(check bool) "remote writer ran" true !done_;
      (* Our flush replies with a version two past what we observed. *)
      get (Io.flush f);
      let hits0 = (Vfs.Cache.stats cache).Vfs.Cache.hits in
      Alcotest.(check bytes) "own bytes still correct" (Bytes.make 512 'W')
        (get (Io.read f ~off:0 ~len:512));
      Alcotest.(check int) "own flushed block re-read is a hit, not a refetch"
        (hits0 + 1)
        (Vfs.Cache.stats cache).Vfs.Cache.hits)

(* Regression: two handles on the same file through one Io must share
   one observed version.  With per-handle versions, alternating writes
   leave each handle's version behind the server's, so every block the
   other handle wrote looks stale and warm reads go remote again. *)
let test_shared_version_across_handles () =
  let tb, _ = rig () in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, cache =
        make_io tb ~host:2 ~capacity:8 ~policy:Vfs.Cache.Write_through
      in
      let f1 = get (Io.open_file io "data") in
      let f2 = get (Io.open_file io "data") in
      let content b = Bytes.make 512 (Char.chr (Char.code 'A' + b)) in
      List.iter
        (fun (f, b) ->
          let (_ : int) = get (Io.write f ~off:(b * 512) (content b)) in
          ())
        [ (f1, 0); (f2, 1); (f1, 2); (f2, 3) ];
      Alcotest.(check int) "handles agree on the version"
        (Io.file_version f1) (Io.file_version f2);
      let hits0 = (Vfs.Cache.stats cache).Vfs.Cache.hits in
      let misses0 = (Vfs.Cache.stats cache).Vfs.Cache.misses in
      List.iter
        (fun f ->
          for b = 0 to 3 do
            Alcotest.(check bytes)
              (Printf.sprintf "block %d readback" b)
              (content b)
              (get (Io.read f ~off:(b * 512) ~len:512))
          done)
        [ f1; f2 ];
      Alcotest.(check int) "all eight reads were warm hits" (hits0 + 8)
        (Vfs.Cache.stats cache).Vfs.Cache.hits;
      Alcotest.(check int) "no block was refetched" misses0
        (Vfs.Cache.stats cache).Vfs.Cache.misses;
      get (Io.close f2);
      get (Io.close f1))

(* The extended reply carries the inode number at full width: inums
   above 65535 must survive the encode/decode round trip, or clients
   would cache blocks under a truncated key. *)
let test_ext_reply_inum_width () =
  let msg = Vkernel.Msg.create () in
  Vfs.Protocol.encode_reply_ext msg ~status:Vfs.Protocol.Sok ~value:7
    ~inum:70001 ~version:9;
  let st, value, inum, version = Vfs.Protocol.decode_reply_ext msg in
  Alcotest.(check bool) "status" true (st = Vfs.Protocol.Sok);
  Alcotest.(check int) "value" 7 value;
  Alcotest.(check int) "inum survives > 16 bits" 70001 inum;
  Alcotest.(check int) "version" 9 version

(* Unaligned reads and read-merge-writes across block boundaries. *)
let test_unaligned () =
  let tb, fs = rig () in
  let inum =
    match Vfs.Fs.lookup fs "data" with
    | Some i -> i
    | None -> Alcotest.fail "data file missing"
  in
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, _cache =
        make_io tb ~host:2 ~capacity:8 ~policy:Vfs.Cache.Write_through
      in
      let f = get (Io.open_file io "data") in
      let got = get (Io.read f ~off:100 ~len:1000) in
      Alcotest.(check bytes)
        "unaligned read spans blocks"
        (Bytes.init 1000 (fun i -> Util.pattern (100 + i)))
        got;
      (* Read past EOF comes back short. *)
      let tail = get (Io.read f ~off:((8 * 512) - 10) ~len:100) in
      Alcotest.(check int) "short read at EOF" 10 (Bytes.length tail);
      (* Partial overwrite inside one block preserves its neighbours. *)
      let n = get (Io.write f ~off:700 (Bytes.make 50 'Z')) in
      Alcotest.(check int) "partial write count" 50 n;
      let blk = fs_get (Vfs.Fs.read fs ~inum ~pos:512 ~len:512) in
      let expect = Bytes.init 512 (fun i -> Util.pattern (512 + i)) in
      Bytes.fill expect (700 - 512) 50 'Z';
      Alcotest.(check bytes) "merged block on server" expect blk)

(* Two identically seeded runs of the cached rig must agree exactly —
   timings and cache counters both. *)
let test_determinism () =
  let run () =
    Vworkload.Rigs.cached_read ~cache_blocks:4 ~working_set:8 ~file_blocks:16
      ~policy:Vfs.Cache.Write_through ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "cold ns" a.Vworkload.Rigs.cold_ns
    b.Vworkload.Rigs.cold_ns;
  Alcotest.(check int) "warm ns" a.Vworkload.Rigs.warm_ns
    b.Vworkload.Rigs.warm_ns;
  Alcotest.(check bool) "stats equal" true
    (a.Vworkload.Rigs.cache_stats = b.Vworkload.Rigs.cache_stats)

(* Packet loss under the cached path: the kernel's retransmission hides
   drops from the cache layer and data stays correct. *)
let test_fault_injection () =
  let tb, _ = rig () in
  Vnet.Medium.set_fault tb.Vworkload.Testbed.medium (Vnet.Fault.drop 0.2);
  Util.run_as_process tb ~host:2 (fun _ ->
      let io, cache =
        make_io tb ~host:2 ~capacity:4 ~policy:Vfs.Cache.Write_back
      in
      let f = get (Io.open_file io "data") in
      for b = 0 to 7 do
        Alcotest.(check bytes)
          (Printf.sprintf "lossy block %d" b)
          (expect_block b)
          (get (Io.read f ~off:(b * 512) ~len:512))
      done;
      (* Re-read the resident tail: still hits, still correct. *)
      for b = 4 to 7 do
        Alcotest.(check bytes)
          (Printf.sprintf "lossy warm block %d" b)
          (expect_block b)
          (get (Io.read f ~off:(b * 512) ~len:512))
      done;
      get (Io.close f);
      let s = Vfs.Cache.stats cache in
      Alcotest.(check int) "warm hits despite loss" 4 s.Vfs.Cache.hits)

let suite =
  [
    Alcotest.test_case "lru order" `Quick test_lru_order;
    Alcotest.test_case "write policies" `Quick test_write_policies;
    Alcotest.test_case "reopen invalidation" `Quick test_reopen_invalidation;
    Alcotest.test_case "no stale retag" `Quick test_no_stale_retag;
    Alcotest.test_case "flush failure keeps dirty" `Quick
      test_flush_failure_keeps_dirty;
    Alcotest.test_case "double open" `Quick test_double_open;
    Alcotest.test_case "recovery follows the name" `Quick
      test_recovery_follows_name;
    Alcotest.test_case "writeback retag across version gap" `Quick
      test_writeback_retag_gap;
    Alcotest.test_case "shared version across handles" `Quick
      test_shared_version_across_handles;
    Alcotest.test_case "ext reply inum width" `Quick test_ext_reply_inum_width;
    Alcotest.test_case "unaligned access" `Quick test_unaligned;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "fault injection" `Quick test_fault_injection;
  ]
