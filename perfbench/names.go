package main

// spec names one reported metric and its unit. The two tables below are
// the benchmark's contract with BENCHMARK.json: an untraced run prints
// exactly endToEnd, a traced run exactly perLayer.
type spec struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload measures
// every one of them, so each value is non-zero on every workload.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"psi_p50_ms", "ms"},
	{"psu_p50_ms", "ms"},
	{"count_p50_ms", "ms"},
	{"sum_p50_ms", "ms"},
	{"server_peak_mib", "MiB"},
}

// handlerTypes are the server request kinds whose handler time is a
// layer metric, named as the program's prism_rpc_seconds labels them.
var handlerTypes = []string{"psi", "psu", "count", "agg", "psiverify", "storedelta"}

// readOps are the query operators every workload runs, in mix order;
// their p50s are end-to-end metrics.
var readOps = []string{"psi", "psu", "count", "sum"}

// perLayer is the traced run's per-module breakdown. A metric whose
// layer is idle on a workload reads 0 there; the run record lists which.
var perLayer = []spec{
	// prism: System API, scheduler and extreme orchestration.
	{"prism.max_p50_ms", "ms"},
	// gateway front tier.
	{"gateway.self_ms", "ms"},
	{"gateway.queue_wait_ms", "ms"},
	// ownerengine.
	{"ownerengine.self_ms", "ms"},
	{"ownerengine.self_ms.psi", "ms"},
	{"ownerengine.self_ms.psu", "ms"},
	{"ownerengine.self_ms.count", "ms"},
	{"ownerengine.self_ms.sum", "ms"},
	{"ownerengine.self_ms.max", "ms"},
	{"ownerengine.sharegen_s", "s"},
	{"ownerengine.upload_s", "s"},
	{"ownerengine.update_build_ms", "ms"},
	{"ownerengine.update_split_ms", "ms"},
	{"ownerengine.update_upload_ms", "ms"},
	// Update latency and service rate (1000 / mean latency). On
	// update-read they repeat within about a tenth, but on the read
	// workloads' trailing burst they swung by a third to fourfold
	// between runs, with host CPU steal and with the cost of the
	// delta-segment file each update creates on a disk server. So none
	// can be an end-to-end metric, which every workload must report
	// within one bound.
	{"ownerengine.update_p50_ms", "ms"},
	{"ownerengine.update_p99_ms", "ms"},
	{"ownerengine.updates_per_s", "1/s"},
	// transport + protocol.
	{"transport.wait_ms", "ms"},
	{"transport.rpc_ms", "ms"},
	{"transport.rpcs_per_query", "count"},
	{"transport.bytes_per_query", "B"},
	{"protocol.codec_ms_per_query", "ms"},
	// serverengine.
	{"serverengine.busy_ms", "ms"},
	{"serverengine.handle_ms.psi", "ms"},
	{"serverengine.handle_ms.psu", "ms"},
	{"serverengine.handle_ms.count", "ms"},
	{"serverengine.handle_ms.agg", "ms"},
	{"serverengine.handle_ms.psiverify", "ms"},
	{"serverengine.handle_ms.storedelta", "ms"},
	{"serverengine.compute_ms.psi", "ms"},
	{"serverengine.compute_ms.psu", "ms"},
	{"serverengine.compute_ms.count", "ms"},
	{"serverengine.compute_ms.sum", "ms"},
	{"serverengine.compute_ns_per_cell", "ns"},
	{"serverengine.cells_per_query", "count"},
	{"serverengine.patch_ms", "ms"},
	// sharestore.
	{"sharestore.fetch_ms", "ms"},
	{"sharestore.cache_hit_ratio", "ratio"},
	{"sharestore.cache_misses_per_query", "count"},
	{"sharestore.evictions_per_query", "count"},
	{"sharestore.compactions", "count"},
	{"sharestore.compaction_busy_s", "s"},
	{"sharestore.compaction_entries", "count"},
	{"sharestore.delta_backlog_end", "count"},
	{"sharestore.store_mib", "MiB"},
	// announcer.
	{"announcer.resolves_per_query", "count"},
	{"announcer.resolve_ms", "ms"},
	// kernels, measured by direct calls at workload vector sizes.
	{"prg.fill16_mbps", "MB/s"},
	{"prg.fill64_mbps", "MB/s"},
	{"share.additive_split_ns_per_cell", "ns"},
	{"share.shamir_split_ns_per_cell", "ns"},
	{"perm.apply_ns_per_cell", "ns"},
	// hardware roofs, recorded beside the kernels and never gated.
	{"roof.memcpy_gbps", "GB/s"},
	{"roof.aesctr_gbps", "GB/s"},
	{"roof.loopback_rtt_us", "us"},
	// the traced span and its remainder.
	{"trace.e2e_ms", "ms"},
	{"unattributed_ms", "ms"},
	{"trace.queries", "count"},
	{"trace.untraced_qps", "1/s"},
	{"trace.traced_qps", "1/s"},
	{"trace.overhead_pct", "%"},
}
