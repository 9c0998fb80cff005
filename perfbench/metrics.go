package main

// metricDef is one reported metric. End-to-end metrics carry the bound
// by which a change may worsen them (the share of the parent's median);
// each per-layer metric names the end-to-end metric it should move and
// the workload it should move it on ("all": every workload; "none" on
// "replay": no workload serves through that layer end to end, and only
// the traced replay measures it).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
	moves, on          string  // per-layer only
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "qps", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "mem_mb", unit: "MiB", better: "lower", bound: 0.2},
	{name: "restart_s", unit: "s", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	// gateway: admission, plan cache
	{name: "gateway.queue_wait_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "gateway.overhead_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "gateway.cache_lookup_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "gateway.cache_hit_ratio", unit: "ratio", better: "higher", moves: "p50_ms", on: "htap_write"},
	{name: "gateway.template_hit_ratio", unit: "ratio", better: "lower", moves: "p99_ms", on: "htap_write"},
	// sqlparser, optimizer
	{name: "sqlparser.fingerprint_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "sqlparser.parse_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "optimizer.plan_us", unit: "us", better: "lower", moves: "p99_ms", on: "htap_write"},
	{name: "optimizer.plans_per_select", unit: "count", better: "lower", moves: "p99_ms", on: "htap_write"},
	// exec and its operators
	{name: "exec.tp_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "exec.ap_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "exec.op.scan_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "exec.op.hashjoin_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "exec.op.nljoin_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "exec.op.agg_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "exec.op.sort_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "exec.allocs_per_select", unit: "count", better: "lower", moves: "p99_ms", on: "htap_write"},
	{name: "exec.rows_scanned_per_output_row", unit: "ratio", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "exec.hash_rows_per_select", unit: "count", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "exec.exchange_rows_per_select", unit: "count", better: "lower", moves: "none", on: "replay"},
	// colstore
	{name: "colstore.chunks_pruned_ratio", unit: "ratio", better: "higher", moves: "p50_ms", on: "htap_write"},
	{name: "colstore.encoded_chunk_ratio", unit: "ratio", better: "higher", moves: "p50_ms", on: "htap_write"},
	{name: "colstore.merges", unit: "count", better: "lower", moves: "p99_ms", on: "htap_write"},
	{name: "colstore.rows_merged", unit: "count", better: "lower", moves: "p99_ms", on: "htap_write"},
	// htap write path, wal, recovery
	{name: "htap.apply_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "htap.commit_us", unit: "us", better: "lower", moves: "p50_ms", on: "htap_write"},
	{name: "htap.conflict_retries_per_write", unit: "ratio", better: "lower", moves: "p99_ms", on: "htap_write"},
	{name: "wal.commits_per_fsync", unit: "ratio", better: "higher", moves: "p50_ms", on: "htap_write"},
	{name: "wal.bytes_per_row_written", unit: "bytes", better: "lower", moves: "restart_s", on: "htap_write"},
	{name: "recovery.replayed_records", unit: "count", better: "lower", moves: "restart_s", on: "htap_write"},
	{name: "recovery.checkpoints", unit: "count", better: "lower", moves: "p99_ms", on: "htap_write"},
	// the explanation pipeline
	{name: "treecnn.embed_us", unit: "us", better: "lower", moves: "p50_ms", on: "explain"},
	{name: "knowledge.topk_us", unit: "us", better: "lower", moves: "p50_ms", on: "explain"},
	{name: "knowledge.grounded_ratio", unit: "ratio", better: "higher", moves: "p50_ms", on: "explain"},
	{name: "prompt.build_us", unit: "us", better: "lower", moves: "p50_ms", on: "explain"},
	{name: "prompt.bytes", unit: "bytes", better: "lower", moves: "p50_ms", on: "explain"},
	{name: "llm.generate_us", unit: "us", better: "lower", moves: "p50_ms", on: "explain"},
	{name: "explainsvc.serve_us", unit: "us", better: "lower", moves: "p50_ms", on: "explain"},
	{name: "explainsvc.plan_cached_ratio", unit: "ratio", better: "higher", moves: "p50_ms", on: "explain"},
	{name: "explainsvc.retrains", unit: "count", better: "lower", moves: "p99_ms", on: "explain"},
	// shard
	{name: "shard.route_us", unit: "us", better: "lower", moves: "none", on: "replay"},
	{name: "shard.exec_us", unit: "us", better: "lower", moves: "none", on: "replay"},
	{name: "shard.pinned_ratio", unit: "ratio", better: "higher", moves: "none", on: "replay"},
	{name: "shard.fanout", unit: "count", better: "lower", moves: "none", on: "replay"},
	// the process as a whole, and the tracing itself
	{name: "process.cpu_us_per_op", unit: "us", better: "lower", moves: "qps", on: "all"},
	{name: "process.allocs_per_op", unit: "count", better: "lower", moves: "p99_ms", on: "all"},
	{name: "process.gc_cycles", unit: "count", better: "lower", moves: "p99_ms", on: "all"},
	{name: "process.gc_pause_ms", unit: "ms", better: "lower", moves: "p99_ms", on: "all"},
	{name: "trace.qps_ratio", unit: "ratio", better: "higher", moves: "qps", on: "all"},
}
