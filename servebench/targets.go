package main

// layerMetric is one per-layer metric of the traced run: its unit, the
// direction an optimisation should move it, and the end-to-end metric
// and workload it should move in turn. BENCHMARK.json lists the same
// names, units and directions (checked by TestBenchmarkJSONMatches).
type layerMetric struct {
	Name, Unit, Better, Moves string
}

// endToEnd lists the end-to-end metrics of an untraced run with their
// units and directions, in the order BENCHMARK.json gives them.
var endToEnd = []struct{ Name, Unit, Better string }{
	{"setup_s", "s", "lower"},
	{"host_ops_per_s", "1/s", "higher"},
	{"mem_peak_mb", "MB", "lower"},
	{"sim_ops_per_s", "1/s", "higher"},
	{"goodput_gbps", "Gbps", "higher"},
	{"read_mean_us", "us", "lower"},
	{"read_p999_us", "us", "lower"},
	{"write_mean_us", "us", "lower"},
	{"write_p999_us", "us", "lower"},
	{"op_ok_share", "share", "higher"},
}

const (
	kvIn  = "kv-inline"
	kvLg  = "kv-large-lossy"
	inc   = "incast-bulk"
	allWL = "all workloads"
)

func on(metric, workload string) string { return metric + " on " + workload }

// layerMetrics names every per-layer metric after the module that
// implements the layer.
var layerMetrics = []layerMetric{
	// sim: the discrete-event engine.
	{"sim.events", "count", "lower", on("host_ops_per_s", kvIn)},
	{"sim.events_per_op", "count/op", "lower", on("host_ops_per_s", kvIn)},
	{"sim.host_ns_per_event", "ns", "lower", on("host_ops_per_s", kvIn)},
	{"sim.pending_max", "count", "lower", on("host_ops_per_s", inc)},

	// Host self-time share per module (leaf frame of each CPU sample).
	{"host.sim", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.packet", "share", "lower", on("host_ops_per_s", inc)},
	{"host.crc", "share", "lower", on("host_ops_per_s", inc)},
	{"host.fabric", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.roce", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.pcie", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.hostmem", "share", "lower", "setup_s and mem_peak_mb on " + allWL},
	{"host.tlb", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.mr", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.core", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.kernels", "share", "lower", on("host_ops_per_s", kvLg)},
	{"host.kvstore", "share", "lower", on("host_ops_per_s", kvLg)},
	{"host.kvserve", "share", "lower", on("host_ops_per_s", kvIn)},
	{"host.telemetry", "share", "lower", on("host_ops_per_s", kvIn)},
	{"host.chaos", "share", "lower", on("host_ops_per_s", kvLg)},
	{"host.bench", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.runtime.gc", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.runtime.malloc", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.runtime.memclr", "share", "lower", "setup_s and mem_peak_mb on " + allWL},
	{"host.runtime.sched", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.runtime.map", "share", "lower", on("host_ops_per_s", allWL)},
	{"host.other", "share", "lower", on("host_ops_per_s", allWL)},

	// Go runtime, over the measured phase of the untraced rounds.
	{"go.allocs_per_op", "count/op", "lower", "host_ops_per_s and mem_peak_mb on " + inc + " and " + kvLg},
	{"go.alloc_bytes_per_op", "B/op", "lower", "host_ops_per_s and mem_peak_mb on " + inc + " and " + kvLg},
	{"go.gc_cycles", "count", "lower", "host_ops_per_s and mem_peak_mb on " + inc + " and " + kvLg},
	{"go.gc_pause_ms", "ms", "lower", "host_ops_per_s and mem_peak_mb on " + inc + " and " + kvLg},

	// fabric: links, NIC-side ports and the shared-buffer switch.
	{"fabric.frames", "count", "lower", on("goodput_gbps", kvIn)},
	{"fabric.wire_bytes", "B", "lower", on("goodput_gbps", kvIn)},
	{"fabric.payload_share", "share", "higher", on("goodput_gbps", kvIn)},
	{"fabric.switch.buffer_bytes_mean", "B", "lower", on("read_p999_us", inc)},
	{"fabric.switch.buffer_bytes_max", "B", "lower", on("read_p999_us", inc)},
	{"fabric.switch.pfc_pauses", "count", "lower", on("goodput_gbps", inc)},
	{"fabric.switch.ecn_marked", "count", "lower", on("goodput_gbps", inc)},
	{"fabric.switch.discards", "count", "lower", on("op_ok_share", kvLg)},
	{"fabric.chaos_drops", "count", "lower", on("op_ok_share", kvLg)},

	// roce: the RoCE v2 transport.
	{"roce.tx_packets", "count", "lower", "write_p999_us and op_ok_share on " + kvLg},
	{"roce.retransmissions", "count", "lower", "write_p999_us and op_ok_share on " + kvLg},
	{"roce.timeouts", "count", "lower", "write_p999_us and op_ok_share on " + kvLg},
	{"roce.retx_share", "share", "lower", "write_p999_us and op_ok_share on " + kvLg},
	{"roce.dup_read_cache_hits", "count", "lower", "read_p999_us and op_ok_share on " + kvLg},
	{"roce.deadline_expired", "count", "lower", "op_ok_share on " + kvLg},
	{"roce.qp_errors", "count", "lower", "op_ok_share on " + kvLg},
	{"roce.paced_frames", "count", "lower", on("goodput_gbps", inc)},
	{"roce.cnps_received", "count", "lower", on("goodput_gbps", inc)},
	{"roce.verb_p50_us", "us", "lower", on("read_mean_us", allWL)},
	{"roce.verb_p999_us", "us", "lower", on("read_mean_us", allWL)},

	// pcie: the host DMA engine.
	{"pcie.read_cmds", "count", "lower", "read_mean_us on " + kvLg + ", write_mean_us on " + inc},
	{"pcie.write_cmds", "count", "lower", "read_mean_us on " + kvLg + ", write_mean_us on " + inc},
	{"pcie.bytes", "B", "lower", "read_mean_us on " + kvLg + ", write_mean_us on " + inc},
	{"pcie.split_segments", "count", "lower", "read_mean_us on " + kvLg + ", write_mean_us on " + inc},
	{"pcie.h2c_util", "share", "lower", "read_mean_us on " + kvLg + ", write_mean_us on " + inc},
	{"pcie.c2h_util", "share", "lower", "read_mean_us on " + kvLg + ", write_mean_us on " + inc},

	// core: the StRoM NIC (doorbells, RPC dispatch, kernel DMA).
	{"core.doorbells", "count", "lower", on("read_mean_us", kvLg)},
	{"core.rpcs_dispatched", "count", "lower", on("read_mean_us", kvLg)},
	{"core.kernel_dma_reads", "count", "lower", on("read_mean_us", kvLg)},
	{"core.kernel_dma_writes", "count", "lower", on("read_mean_us", kvLg)},

	// kernels/consistency: the NIC-side CRC64 extent reader.
	{"kernels.consistency.invocations", "count", "lower", on("read_p999_us", kvLg)},
	{"kernels.consistency.rereads", "count", "lower", on("read_p999_us", kvLg)},
	{"kernels.consistency.failures", "count", "lower", on("read_p999_us", kvLg)},

	// kvserve: the replicated KV client protocol.
	{"kvserve.verbs_per_op", "count/op", "lower", "sim_ops_per_s on " + kvIn + " and " + kvLg},
	{"kvserve.useful_share", "share", "higher", on("op_ok_share", kvLg)},
	{"kvserve.retries", "count", "lower", on("op_ok_share", kvLg)},
	{"kvserve.failovers", "count", "lower", on("op_ok_share", kvLg)},
	{"kvserve.repairs", "count", "lower", on("op_ok_share", kvLg)},
	{"kvserve.dup_suppressed", "count", "lower", on("op_ok_share", kvLg)},
	{"kvserve.spilled_reads", "count", "lower", on("read_mean_us", kvLg)},
	{"kvserve.torn_detected", "count", "lower", on("read_p999_us", kvLg)},
	{"kvserve.torn_retries", "count", "lower", on("read_p999_us", kvLg)},
	{"kvserve.orphans_reaped", "count", "lower", on("op_ok_share", kvLg)},
	{"kvserve.fail.read_depth", "count", "lower", on("op_ok_share", kvLg)},
	{"kvserve.fail.deadline", "count", "lower", on("op_ok_share", kvLg)},
	{"kvserve.fail.unavailable", "count", "lower", on("op_ok_share", kvLg)},
	{"kvserve.fail.other", "count", "lower", on("op_ok_share", kvLg)},

	// chaos: fault injection and the invariant checkers.
	{"chaos.faults_injected", "count", "lower", on("op_ok_share", kvLg)},
	{"chaos.checker_violations", "count", "lower", "must stay 0 on " + allWL},

	{"trace_overhead_share", "share", "lower", "none (cost of the traced run itself)"},
}
