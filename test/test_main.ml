let () =
  Alcotest.run "v-kernel"
    [
      ("sim", Test_sim.suite);
      ("pool", Test_pool.suite);
      ("hw", Test_hw.suite);
      ("net", Test_net.suite);
      ("msg-pid", Test_msg.suite);
      ("mem", Test_mem.suite);
      ("packet", Test_packet.suite);
      ("kernel-local", Test_kernel_local.suite);
      ("kernel-remote", Test_kernel_remote.suite);
      ("forward", Test_forward.suite);
      ("mapped", Test_mapped.suite);
      ("move", Test_move.suite);
      ("registry", Test_registry.suite);
      ("fault", Test_fault.suite);
      ("rto", Test_rto.suite);
      ("disk", Test_disk.suite);
      ("fs", Test_fs.suite);
      ("file-server", Test_server.suite);
      ("server-team", Test_team.suite);
      ("cache", Test_cache.suite);
      ("lease", Test_lease.suite);
      ("baseline", Test_baseline.suite);
      ("workload", Test_workload.suite);
      ("vexec", Test_vexec.suite);
      ("stress", Test_stress.suite);
      ("obs", Test_obs.suite);
      ("catalog", Test_catalog.suite);
      ("check", Test_check.suite);
      ("inet", Test_inet.suite);
      ("failover", Test_failover.suite);
      ("boot", Test_boot.suite);
      ("mkfs", Test_mkfs.suite);
      ("journal", Test_journal.suite);
      ("crash", Test_crash.suite);
    ]
