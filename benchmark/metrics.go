package main

// metricDef names one reported metric. The two tables below are the single
// source of the metric names the program prints; BENCHMARK.json repeats them
// and a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated relative worsening
}

// endToEnd is what a user of the tier sees; every workload reports all six.
// README.md derives the bounds from measured run-to-run spreads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"rtt_p50_ms", "ms", "lower", 0.25},
	{"start_p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
}

// perLayer is the ladder under them; README.md says which end-to-end metric
// each should move on which workload. A metric that does not apply to a
// workload (router.* on a direct one) reads 0.
var perLayer = []metricDef{
	// The tail of the primary round trip. It sits on the cliff between
	// requests that overlap a GC cycle and requests that do not (README.md),
	// so it is reported but not gated.
	{Name: "rtt_p99_ms", Unit: "ms", Better: "lower"},
	// Process split of the measured slices, from /proc and /metrics.
	{Name: "driver.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "server.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "router.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "server.ctxsw_per_op", Unit: "count", Better: "lower"},
	{Name: "server.gc_per_s", Unit: "1/s", Better: "lower"},
	{Name: "server.heap_mb", Unit: "MB", Better: "lower"},
	{Name: "engine.cluster_hit_share", Unit: "share", Better: "higher"},
	{Name: "run.disturbed_slice_share", Unit: "share", Better: "lower"},
	// Span self times of the traced replay, per primary request.
	{Name: "httpapi.client_self_us", Unit: "us", Better: "lower"},
	{Name: "transport.self_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.server_self_us", Unit: "us", Better: "lower"},
	{Name: "engine.self_us", Unit: "us", Better: "lower"},
	{Name: "router.self_us", Unit: "us", Better: "lower"},
	{Name: "router.upstream_self_us", Unit: "us", Better: "lower"},
	{Name: "router.upstream_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "engine.start_us", Unit: "us", Better: "lower"},
	{Name: "engine.observe_us", Unit: "us", Better: "lower"},
	{Name: "engine.end_us", Unit: "us", Better: "lower"},
	{Name: "trace.client_median_us", Unit: "us", Better: "lower"},
	{Name: "trace.self_sum_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	// Leaf loops.
	{Name: "hmm.filter_step_ns", Unit: "ns", Better: "lower"},
	{Name: "sessionstore.get_ns", Unit: "ns", Better: "lower"},
	{Name: "sessionstore.put_delete_ns", Unit: "ns", Better: "lower"},
	{Name: "core.new_session_us", Unit: "us", Better: "lower"},
	{Name: "engine.rebuffer_estimate_us", Unit: "us", Better: "lower"},
	{Name: "engine.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.batch_op_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.op_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.batch_codec_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "httpapi.handler_json_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.handler_binary_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.handler_batch_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "httpapi.handler_start_us", Unit: "us", Better: "lower"},
	{Name: "registry.load_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.observe_allocs", Unit: "count", Better: "lower"},
	{Name: "httpapi.handler_json_allocs", Unit: "count", Better: "lower"},
	{Name: "httpapi.handler_binary_allocs", Unit: "count", Better: "lower"},
	{Name: "httpapi.client_json_allocs", Unit: "count", Better: "lower"},
	{Name: "httpapi.client_binary_allocs", Unit: "count", Better: "lower"},
	// Host reference.
	{Name: "host.spin_mops", Unit: "Mops/s", Better: "higher"},
	{Name: "host.echo_rtt_us", Unit: "us", Better: "lower"},
}
