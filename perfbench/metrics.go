package main

// metricDef names one reported metric and its unit. The lists below are
// the metric sets of BENCHMARK.json, in its order.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the stack sees, printed with --trace 0:
// set-up time, the copies each op costs, CPU per op and peak memory.
// Latencies and goodput are per-layer: on a shared 2-vCPU VM whose
// hypervisor steal comes and goes, the in-memory workloads' median
// latency doubled within minutes between runs of one build, even in a
// run's quietest seconds, and tails and goodput spread wider still, so no
// bound a later change could be held to would hold them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"copies_per_op", "copies"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer is printed with --trace 1: the traced pass's layer metrics,
// the untraced pass's per-op latencies, and the tracing overhead (traced
// minus untraced) of every end-to-end metric.
var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.max_inflight", "count"},
	{"loadgen.conns", "count"},
	{"loadgen.base_ops", "count"},
	{"loadgen.base_failed", "count"},
	{"loadgen.fail_frac", "ratio"},
	{"loadgen.goodput_rps", "req/s"},
	{"loadgen.rungs", "count"},

	{"op.read_p50_ms", "ms"},
	{"op.all_p50_ms", "ms"},
	{"op.get_p50_ms", "ms"},
	{"op.get_p99_ms", "ms"},
	{"op.get_n", "count"},
	{"op.qget_p99_ms", "ms"},
	{"op.qget_n", "count"},
	{"op.put_p50_ms", "ms"},
	{"op.put_p99_ms", "ms"},
	{"op.put_n", "count"},
	{"op.cas_p99_ms", "ms"},
	{"op.cas_n", "count"},
	{"op.scan_p99_ms", "ms"},
	{"op.scan_n", "count"},
	{"op.watch_lag_p99_ms", "ms"},

	{"gateway.http_p50_us", "us"},
	{"gateway.http_p99_us", "us"},
	{"gateway.self_p50_us", "us"},
	{"gateway.requests", "count"},

	{"core.launch_p50_us", "us"},
	{"core.hedge_offset_p50_ms", "ms"},
	{"core.copies_per_read", "copies"},
	{"core.cancelled_frac", "ratio"},
	{"core.useful_frac", "ratio"},
	{"core.second_win_frac", "ratio"},
	{"core.reads", "count"},
	{"core.read_copies", "count"},
	{"core.cancelled", "count"},
	{"core.hedged_reads", "count"},
	{"core.second_wins", "count"},
	{"core.governor_util", "copies"},
	{"core.governor_gated_frac", "ratio"},
	{"core.governor_samples", "count"},
	{"core.governor_flips", "count"},

	{"slo.fanout", "copies"},
	{"slo.quantile", "ratio"},
	{"slo.holds", "count"},
	{"slo.tightens", "count"},
	{"slo.relaxes", "count"},
	{"slo.clamps", "count"},
	{"slo.rejects", "count"},
	{"slo.window_p99_ms", "ms"},

	{"memkv.get_copy_p50_us", "us"},
	{"memkv.get_copy_p99_us", "us"},
	{"memkv.getv_copy_p50_us", "us"},
	{"memkv.getv_copy_p99_us", "us"},
	{"memkv.putv_copy_p50_us", "us"},
	{"memkv.putv_copy_p99_us", "us"},
	{"memkv.cas_copy_p50_us", "us"},
	{"memkv.cas_copy_p99_us", "us"},
	{"memkv.scan_copy_p50_us", "us"},
	{"memkv.scan_copy_p99_us", "us"},
	{"memkv.copies", "count"},
	{"memkv.copies_by_shard_max_over_mean", "ratio"},
	{"memkv.copy_errors", "count"},
	{"memkv.put_copy_spread_p99_us", "us"},

	{"watch.events", "count"},
	{"watch.acked", "count"},
	{"watch.dups", "count"},
	{"watch.missing", "count"},
	{"watch.superseded", "count"},
	{"watch.unacked", "count"},
	{"watch.lag_p50_ms", "ms"},

	{"disk.util_max", "ratio"},
	{"disk.wait_p99_ms", "ms"},
	{"disk.service_mean_ms", "ms"},
	{"disk.requests", "count"},

	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.cpu_s", "s"},
	{"runtime.sched_lat_p99_us", "us"},
	{"runtime.goroutines_max", "count"},

	{"trace.spans", "count"},
	{"trace.dropped", "count"},
}

// overheadName is the per-layer name of an end-to-end metric's tracing
// overhead.
func overheadName(e2e string) string { return "trace.overhead." + e2e }

func init() {
	for _, m := range endToEnd {
		perLayer = append(perLayer, metricDef{overheadName(m.name), m.unit})
	}
}
