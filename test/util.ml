(* Shared helpers for the test suite. *)

let check_ms ~tolerance name expected actual_ns =
  let actual = Vsim.Time.to_float_ms actual_ns in
  if Float.abs (actual -. expected) > tolerance then
    Alcotest.failf "%s: expected %.3f ms (+/- %.3f), got %.3f ms" name
      expected tolerance actual

let testbed ?seed ?medium_config ?cpu_model ?kernel_config ?(hosts = 2) () =
  Vworkload.Testbed.create ?seed ?medium_config ?cpu_model ?kernel_config
    ~hosts ()

(* Run [f] as a kernel process on the given host, drive the simulation to
   quiescence, and fail the test if [f] never completed. *)
let run_as_process (tb : Vworkload.Testbed.t) ~host f =
  let k = (Vworkload.Testbed.host tb host).Vworkload.Testbed.kernel in
  let completed = ref false in
  let (_ : Vkernel.Pid.t) =
    Vkernel.Kernel.spawn k ~name:"test-main" (fun pid ->
        f pid;
        completed := true)
  in
  Vworkload.Testbed.run tb;
  if not !completed then Alcotest.fail "test process did not run to completion"

let pattern = Vworkload.Testbed.pattern_byte

let fill_pattern mem ~pos ~len =
  Vkernel.Mem.write mem ~pos (Bytes.init len (fun i -> pattern (pos + i)))

let check_pattern mem ~pos ~len ~name =
  let got = Vkernel.Mem.read mem ~pos ~len in
  let expect = Bytes.init len (fun i -> pattern (pos + i)) in
  if not (Bytes.equal got expect) then
    Alcotest.failf "%s: data mismatch at %d (+%d)" name pos len

let status = Alcotest.testable Vkernel.Kernel.pp_status ( = )

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Words [f] allocates directly in the major heap, i.e. blocks too big
   for the minor heap: [Gc.counters]' major words less those promoted
   from the minor heap.  [Gc.counters] counts to the word at the call,
   with no collection needed before or after [f].  Deterministic for a
   fixed program. *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let _, promoted1, major1 = Gc.counters () in
  ignore (Sys.opaque_identity r);
  int_of_float (major1 -. major0 -. (promoted1 -. promoted0))
