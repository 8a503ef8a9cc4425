package main

// The metric catalog: every metric a run reports, with its unit. The
// untraced run emits endToEnd, the traced run perLayer; BENCHMARK.json at
// the repository root lists the same names and units, and the self-test
// checks that the three agree.

type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metricSpec{
	{"sim.records", "count"},
	{"sim.ns_per_record", "ns"},
	{"metrics.add_ns_per_record", "ns"},
	{"metrics.merge_ms", "ms"},
	{"metrics.summarise_ms", "ms"},
	{"metrics.encode_ms", "ms"},
	{"metrics.decode_ms", "ms"},
	{"metrics.wire_bytes_per_shard", "bytes"},
	{"metrics.agg_heap_mb", "MB"},
	{"session.aggregate_ms", "ms"},
	{"session.shard_skew", "ratio"},
	{"session.parallel_eff", "ratio"},
	{"session.replay_shard_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"trace.decode_ns_per_record", "ns"},
	{"trace.bytes", "bytes"},
	{"server.decode_us", "us"},
	{"server.render_us", "us"},
	{"server.handler_hit_us", "us"},
	{"server.response_bytes", "bytes"},
	{"server.socket_share", "ratio"},
	{"jobcache.key_us", "us"},
	{"jobcache.hit_frac", "ratio"},
	{"jobcache.shared", "count/req"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.rejected", "count/req"},
	{"jobs.retries", "count/req"},
	{"dist.shard_rtt_ms", "ms"},
	{"dist.dispatches", "count/req"},
	{"dist.reroutes", "count/req"},
	{"dist.hedges", "count/req"},
	{"dist.hedge_useful_frac", "ratio"},
	{"obs.stage_aggregate_ms", "ms"},
	{"obs.stage_merge_ms", "ms"},
	{"obs.stage_plan_ms", "ms"},
	{"process.alloc_mb_per_req", "MB"},
	{"process.gc_cpu_frac", "ratio"},
	{"tracing.overhead_ms", "ms"},
	{"tracing.coverage", "ratio"},
}
