(* The metric dictionary: every number the benchmark reports, with its
   unit and the direction that counts as better.  End-to-end metrics also
   carry their regression bound: the share of the parent's median by
   which the metric may worsen.  BENCHMARK.json lists the host metrics
   with these same bounds; see README.md. *)

type better = Higher | Lower

type t = { name : string; unit : string; better : better; bound : float }

let better_to_string = function Higher -> "higher" | Lower -> "lower"

let m name unit better bound = { name; unit; better; bound }

(* Host metrics (this machine's simulator speed) are taken over reps and
   their bounds cover the run-to-run spread of a shared machine; [sim_*]
   metrics are exact functions of the seed. *)
let end_to_end =
  [
    m "host_ops_per_s" "ops/s" Higher 0.20;
    m "setup_s" "s" Lower 0.25;
    m "host_peak_heap_mb" "MB" Lower 0.10;
    m "failed_frac" "ratio" Lower 0.0;
    m "sim_op_p50_ms" "ms" Lower 0.005;
    m "sim_op_p99_ms" "ms" Lower 0.005;
    m "sim_ops_per_s" "ops/s" Higher 0.005;
    m "sim_goodput_per_s" "ops/s" Higher 0.005;
    m "sim_server_cpu_ms_per_op" "ms" Lower 0.005;
    m "sim_client_cpu_ms_per_op" "ms" Lower 0.005;
    m "sim_wire_bytes_per_op" "B" Lower 0.005;
  ]

(* Per-layer metrics have no bound: they explain an end-to-end change,
   they do not gate one.  README.md names the end-to-end metric and
   workload each one should move. *)
let per_layer =
  let l name unit better = m name unit better 0.0 in
  [
    l "vsim.events_per_op" "count" Lower;
    l "vsim.minor_words_per_op" "words" Lower;
    l "vsim.host_ns_per_event" "ns" Lower;
    l "vsim.outside_callbacks_share" "ratio" Lower;
    l "vsim.host_share_proc" "ratio" Lower;
    l "vhw.host_share" "ratio" Lower;
    l "vhw.server_cpu_util" "ratio" Lower;
    l "vhw.client_cpu_util" "ratio" Lower;
    l "vhw.cpu_grants_per_op" "count" Lower;
    l "vnet.host_share" "ratio" Lower;
    l "vnet.frames_per_op" "count" Lower;
    l "vnet.medium_util" "ratio" Lower;
    l "vnet.collisions_per_op" "count" Lower;
    l "vnet.nic_tx_queued_per_op" "count" Lower;
    l "vnet.span_net_request_ms" "ms" Lower;
    l "vnet.span_net_reply_ms" "ms" Lower;
    l "vnet.gateway_forwarded_per_op" "count" Lower;
    l "vnet.gateway_rebroadcast_per_op" "count" Lower;
    l "vnet.gateway_suppressed" "count" Higher;
    l "vnet.gateway_queue_drops" "count" Lower;
    l "vkernel.host_share" "ratio" Lower;
    l "vkernel.packets_per_op" "count" Lower;
    l "vkernel.retransmits_per_op" "count" Lower;
    l "vkernel.timeouts_per_op" "count" Lower;
    l "vkernel.reply_pendings_per_op" "count" Lower;
    l "vkernel.duplicates_filtered_per_op" "count" Lower;
    l "vkernel.span_client_send_ms" "ms" Lower;
    l "vkernel.span_reply_send_ms" "ms" Lower;
    l "vkernel.span_client_resume_ms" "ms" Lower;
    l "vfs.host_share" "ratio" Lower;
    l "vfs.server_requests_per_op" "count" Lower;
    l "vfs.server_dispatches_per_op" "count" Lower;
    l "vfs.span_server_queue_ms" "ms" Lower;
    l "vfs.span_server_work_ms" "ms" Lower;
    l "vfs.disk_util" "ratio" Lower;
    l "vfs.disk_reads_per_op" "count" Lower;
    l "vfs.disk_writes_per_op" "count" Lower;
    l "vfs.disk_queue_waits_per_op" "count" Lower;
    l "vfs.disk_queue_wait_ms_mean" "ms" Lower;
    l "vfs.read_page_p50_ms" "ms" Lower;
    l "vfs.load_program_p50_ms" "ms" Lower;
    l "vfs.cache_hit_ratio" "ratio" Higher;
    l "vfs.cache_writebacks_per_op" "count" Lower;
    l "vfs.cache_invalidations_per_op" "count" Lower;
    l "vfs.leases_granted_per_op" "count" Lower;
    l "vfs.leases_broken" "count" Lower;
    l "vfs.leases_expired_per_op" "count" Lower;
    l "vfs.journal_write_amplification" "ratio" Lower;
    l "vfs.io_open_p50_ms" "ms" Lower;
    l "vfs.io_read_p50_ms" "ms" Lower;
    l "vfs.io_write_p50_ms" "ms" Lower;
    l "vfs.io_close_p50_ms" "ms" Lower;
    l "vcheck.schedules" "count" Higher;
    l "vcheck.violations" "count" Lower;
    l "vcheck.host_ms_per_schedule" "ms" Lower;
    l "boot.rounds_mean" "count" Lower;
    l "boot.resent_pages_per_boot" "count" Lower;
    l "boot.unacked_done" "count" Lower;
    l "vobs.trace_overhead_x" "x" Lower;
  ]

(* The names BENCHMARK.json lists: the host end-to-end metrics, which
   every workload reports, and the per-layer metrics that are not
   simulated times.  A [sim_*] figure is an exact function of the seed,
   and on ipc_pingpong and fault_sweep (or, per layer, wherever the layer
   does not run) it does not depend on the seed at all, so it would read
   the same on every run; the paper-table gate of bench/ covers simulated
   regressions, and [vbench compare] the [sim_*] figures. *)
let listed_end_to_end = [ "host_ops_per_s"; "setup_s"; "host_peak_heap_mb" ]

let listed_per_layer =
  List.filter_map (fun m -> if m.unit = "ms" then None else Some m.name) per_layer

(* Printed for context, never compared: the number of latency samples
   behind [sim_op_p50_ms] / [sim_op_p99_ms]. *)
let informational = [ m "sim_op_samples" "count" Higher 0.0 ]

let find name =
  List.find_opt (fun t -> t.name = name) (end_to_end @ per_layer @ informational)
