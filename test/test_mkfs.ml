(* Mkfs: every testbed's filesystem is a copy-on-write clone of an image
   formatted once per domain.  The clone must be exactly what formatting
   the disk in place on the testbed's own engine produced. *)

module TB = Vworkload.Testbed
module Topo = Vworkload.Topology

(* The fiber mkfs every testbed ran before images existed: format, mount
   and write the files on the caller's engine, one disk event per
   block. *)
let reference_mkfs eng ~host ~latency ~blocks ~journal_blocks ~files =
  let disk =
    Vfs.Disk.create eng ~host ~latency:(Vfs.Disk.Fixed 0) ~blocks
      ~block_size:Vfs.Fs.block_size ()
  in
  let fs_box = ref None in
  let fail what e = Alcotest.failf "mkfs %s: %a" what Vfs.Fs.pp_error e in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng ~name:"mkfs" (fun () ->
        Vfs.Fs.format disk ~journal_blocks ~ninodes:256 ();
        let fs =
          match Vfs.Fs.mount disk with Ok fs -> fs | Error e -> fail "mount" e
        in
        List.iter
          (fun (name, size) ->
            match Vfs.Fs.create fs name with
            | Error e -> fail name e
            | Ok inum -> (
                match
                  Vfs.Fs.write fs ~inum ~pos:0 (Bytes.init size TB.pattern_byte)
                with
                | Ok () -> ()
                | Error e -> fail name e))
          files;
        fs_box := Some fs)
  in
  Vsim.Engine.run eng;
  Vfs.Disk.set_latency disk latency;
  Option.get !fs_box

let all_blocks fs =
  let d = Vfs.Fs.disk fs in
  List.init (Vfs.Disk.blocks d) (Vfs.Disk.peek d)

(* Read every file back in a fiber and run fsck: the two filesystems
   must answer alike, which also holds their caches to the same
   contents (a differing entry shows as differing hit counts). *)
let audit eng fs files =
  let out = ref None in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng ~name:"audit" (fun () ->
        let contents =
          List.map
            (fun (name, size) ->
              match Vfs.Fs.lookup fs name with
              | None -> Alcotest.failf "%s missing" name
              | Some inum -> (
                  match Vfs.Fs.read fs ~inum ~pos:0 ~len:size with
                  | Ok data ->
                      Bytes.equal data (Bytes.init size TB.pattern_byte)
                  | Error e ->
                      Alcotest.failf "read %s: %a" name Vfs.Fs.pp_error e))
            files
        in
        out := Some (contents, Vfs.Fs.check fs))
  in
  Vsim.Engine.run eng;
  Option.get !out

let same_as_reference label ~files (ref_eng, ref_fs) (eng, fs) =
  let name what = Printf.sprintf "%s: %s" label what in
  let ref_disk = Vfs.Fs.disk ref_fs and disk = Vfs.Fs.disk fs in
  List.iteri
    (fun b (want, got) ->
      if not (Bytes.equal want got) then
        Alcotest.failf "%s: block %d differs from the reference mkfs" label b)
    (List.combine (all_blocks ref_fs) (all_blocks fs));
  Alcotest.(check (pair int int)) (name "disk reads, writes")
    (Vfs.Disk.reads ref_disk, Vfs.Disk.writes ref_disk)
    (Vfs.Disk.reads disk, Vfs.Disk.writes disk);
  Alcotest.(check bool) (name "latency") true
    (Vfs.Disk.latency ref_disk = Vfs.Disk.latency disk);
  Alcotest.(check (pair int int)) (name "cache hits, misses")
    (Vfs.Fs.cache_hits ref_fs, Vfs.Fs.cache_misses ref_fs)
    (Vfs.Fs.cache_hits fs, Vfs.Fs.cache_misses fs);
  Alcotest.(check (pair int int)) (name "clock, pending")
    (Vsim.Engine.now ref_eng, Vsim.Engine.pending ref_eng)
    (Vsim.Engine.now eng, Vsim.Engine.pending eng);
  Alcotest.(check int) (name "engine random stream")
    (Vsim.Rng.int (Vsim.Engine.rng ref_eng) 1_000_000_000)
    (Vsim.Rng.int (Vsim.Engine.rng eng) 1_000_000_000);
  let want = audit ref_eng ref_fs files and got = audit eng fs files in
  Alcotest.(check (list bool)) (name "file contents")
    (List.map (fun _ -> true) files) (fst got);
  Alcotest.(check (list string)) (name "fsck") [] (snd got);
  Alcotest.(check bool) (name "reference agrees") true (want = got);
  Alcotest.(check (pair int int)) (name "cache hits, misses after reads")
    (Vfs.Fs.cache_hits ref_fs, Vfs.Fs.cache_misses ref_fs)
    (Vfs.Fs.cache_hits fs, Vfs.Fs.cache_misses fs)

(* A testbed with an event already scheduled: mkfs runs the engine
   until it is quiescent, so the event has fired by the time it returns. *)
let busy_testbed () =
  let tb = TB.create ~hosts:2 () in
  let (_ : Vsim.Engine.handle) =
    Vsim.Engine.after tb.TB.eng (Vsim.Time.ms 5) ignore
  in
  tb

(* Each shape is checked on a cold image, then on the warm one. *)
let test_testbed_unjournaled () =
  let files = [ ("mkfs-plain", 4 * 512); ("mkfs-prog", 3000) ] in
  let reference () =
    let tb = busy_testbed () in
    ( tb.TB.eng,
      reference_mkfs tb.TB.eng ~host:2 ~latency:(Vfs.Disk.Fixed 0)
        ~blocks:16384 ~journal_blocks:0 ~files )
  in
  for round = 1 to 2 do
    let tb = busy_testbed () in
    let fs = TB.make_test_fs tb ~host:2 ~files () in
    same_as_reference (Printf.sprintf "unjournaled #%d" round) ~files
      (reference ()) (tb.TB.eng, fs)
  done

let test_testbed_journaled () =
  let files = [ ("mkfs-log", 6 * 512) ] in
  let latency = Vfs.Disk.Fixed (Vsim.Time.ms 4) in
  let reference () =
    let tb = TB.create ~seed:7L ~hosts:3 () in
    ( tb.TB.eng,
      reference_mkfs tb.TB.eng ~host:2 ~latency ~blocks:16384
        ~journal_blocks:64 ~files )
  in
  for round = 1 to 2 do
    let tb = TB.create ~seed:7L ~hosts:3 () in
    let fs = TB.make_test_fs tb ~host:2 ~latency ~journal_blocks:64 ~files () in
    same_as_reference (Printf.sprintf "journaled #%d" round) ~files
      (reference ()) (tb.TB.eng, fs)
  done

let test_topology () =
  let files =
    ("mkfs-lib", 32 * 512)
    :: List.init 3 (fun i -> (Printf.sprintf "mkfs-home%d" i, 16 * 512))
  in
  let topology () =
    Topo.create
      ~segments:
        [
          { Topo.medium_config = Vnet.Medium.config_3mb; seg_hosts = 3 };
          { Topo.medium_config = Vnet.Medium.config_10mb; seg_hosts = 1 };
        ]
      ()
  in
  let reference () =
    let tp = topology () in
    ( tp.Topo.eng,
      reference_mkfs tp.Topo.eng ~host:4 ~latency:(Vfs.Disk.Fixed 0)
        ~blocks:16384 ~journal_blocks:64 ~files )
  in
  for round = 1 to 2 do
    let tp = topology () in
    let fs = Topo.make_fs tp ~host:4 ~journal_blocks:64 ~files () in
    same_as_reference (Printf.sprintf "topology #%d" round) ~files
      (reference ()) (tp.Topo.eng, fs)
  done

(* A clone is the image's to copy, not to change: writing through one
   clone, to its block cache and its disk, must leave every later clone
   of the same image equal to the reference mkfs. *)
let test_clone_isolation () =
  let files = [ ("mkfs-iso", 4 * 512); ("mkfs-iso2", 1500) ] in
  List.iter
    (fun journal_blocks ->
      let label what = Printf.sprintf "journal %d: %s" journal_blocks what in
      let clone () =
        let tb = busy_testbed () in
        (tb.TB.eng, TB.make_test_fs tb ~host:2 ~journal_blocks ~files ())
      in
      let eng, fs = clone () in
      let before = all_blocks fs in
      let ok what = function
        | Ok x -> x
        | Error e -> Alcotest.failf "%s: %a" (label what) Vfs.Fs.pp_error e
      in
      let (_ : Vsim.Proc.t) =
        Vsim.Proc.spawn eng ~name:"scribble" (fun () ->
            let inum = Option.get (Vfs.Fs.lookup fs "mkfs-iso") in
            ok "overwrite" (Vfs.Fs.write fs ~inum ~pos:100 (Bytes.make 900 'x'));
            let fresh = ok "create" (Vfs.Fs.create fs "mkfs-scribble") in
            ok "append" (Vfs.Fs.write fs ~inum:fresh ~pos:0 (Bytes.make 700 'y'));
            ok "unlink" (Vfs.Fs.unlink fs "mkfs-iso2");
            (* Every block just written is read back from the cache. *)
            ignore (ok "read" (Vfs.Fs.read fs ~inum ~pos:0 ~len:(4 * 512))))
      in
      Vsim.Engine.run eng;
      Alcotest.(check bool) (label "the scribbled clone changed") false
        (List.equal Bytes.equal before (all_blocks fs));
      let reference () =
        let tb = busy_testbed () in
        ( tb.TB.eng,
          reference_mkfs tb.TB.eng ~host:2 ~latency:(Vfs.Disk.Fixed 0)
            ~blocks:16384 ~journal_blocks ~files )
      in
      same_as_reference (label "later clone") ~files (reference ()) (clone ()))
    [ 0; 64 ]

(* Run [f] on a domain of its own, whose image memo starts cold. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

let traced_workload () =
  let buf = Buffer.create 65536 in
  Vsim.Engine.with_create_hook
    (Some (fun eng -> Vobs.Jsonl.attach eng (Buffer.add_string buf)))
    (fun () -> ignore (Vcheck.Workload.run Vcheck.Workload.net ()));
  Buffer.contents buf

let test_trace_cold_warm () =
  let cold, warm =
    on_fresh_domain (fun () ->
        let cold = traced_workload () in
        (cold, traced_workload ()))
  in
  Alcotest.(check bool) "trace written" true (String.length cold > 0);
  Alcotest.(check bool) "cold memo trace = warm memo trace" true
    (String.equal cold warm)

let test_create_hook () =
  let engines =
    on_fresh_domain (fun () ->
        let n = ref 0 in
        Vsim.Engine.set_create_hook (Some (fun _ -> incr n));
        let tb = TB.create ~hosts:2 () in
        let (_ : Vfs.Fs.t) =
          TB.make_test_fs tb ~files:[ ("mkfs-hook", 1000) ] ()
        in
        Vsim.Engine.set_create_hook None;
        !n)
  in
  Alcotest.(check int) "only the testbed's engine" 1 engines

(* Two pool domains build the same cold shape at the same time: each
   waits (briefly) for the other to start before formatting. *)
let test_pool_domains () =
  let files = [ ("mkfs-pooled", 5000); ("mkfs-pooled2", 700) ] in
  let started = Atomic.make 0 in
  let image () =
    Atomic.incr started;
    let deadline = Sys.time () +. 1.0 in
    while Atomic.get started < 2 && Sys.time () < deadline do
      Domain.cpu_relax ()
    done;
    let tb = TB.create ~hosts:2 () in
    let fs = TB.make_test_fs tb ~blocks:2048 ~journal_blocks:32 ~files () in
    (Vfs.Disk.reads (Vfs.Fs.disk fs), all_blocks fs)
  in
  match
    Vsim.Pool.run_list ~domains:2 [ Vsim.Job.v image; Vsim.Job.v image ]
  with
  | [ a; b ] ->
      Alcotest.(check bool) "equal images" true (a = b);
      Alcotest.(check bool) "equal to this domain's" true (a = image ())
  | _ -> Alcotest.fail "two jobs, two results"

let suite =
  [
    Alcotest.test_case "testbed clone = reference" `Quick
      test_testbed_unjournaled;
    Alcotest.test_case "journaled clone = reference" `Quick
      test_testbed_journaled;
    Alcotest.test_case "topology clone = reference" `Quick test_topology;
    Alcotest.test_case "a written clone leaves the image alone" `Quick
      test_clone_isolation;
    Alcotest.test_case "trace cold = warm" `Quick test_trace_cold_warm;
    Alcotest.test_case "create hook sees the testbed only" `Quick
      test_create_hook;
    Alcotest.test_case "pool domains build equal images" `Quick
      test_pool_domains;
  ]
