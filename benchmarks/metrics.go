package benchmarks

// MetricDef declares one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression (per-layer metrics have
// none).
type MetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd is what a user of the system would see and what the driver
// gates. BENCHMARK.json's end_to_end list is flat — a run of any workload
// with --trace 0 must print every metric in it, and none may be 0 — so it
// holds exactly the end-to-end metrics that every workload measures; the
// ones only one workload has are in Specific. README.md records the
// ten-seed spreads the bounds come from.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// Specific are the end-to-end metrics that belong to one workload:
// cheap_p99_ms to serve-mixed, write_p99_ms and ingest_ops_per_s to
// live-mixed. A workload they do not belong to leaves them out of its
// untraced result ("all -out" files, "compare", "selfcheck", which judge
// them with the bounds given here) — there is no writer to time on
// serve-hot. BENCHMARK.json can only name them in its per_layer list,
// where every workload must print every name: the traced run reports
// them there, measured in its own windows, and 0 where they do not apply.
// failed_share is reported the same way; it is 0 on a healthy run, so it
// can have no relative bound, and the result line's attempted / failed
// counts carry it to the driver.
var Specific = []MetricDef{
	{"cheap_p99_ms", "ms", "lower", 0.25},
	{"write_p99_ms", "ms", "lower", 0.25},
	{"ingest_ops_per_s", "1/s", "higher", 0.25},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}

// PerLayer lists what the traced run reports: the layer metrics (layer =
// module name) and, last, Specific. A workload whose path does not
// include a layer reports 0 for it: the time that workload spends there
// is zero. README.md has the glossary and the table of which end-to-end
// metric each should move.
var PerLayer = []MetricDef{
	{Name: "eql.parse_us", Unit: "us", Better: "lower"},
	{Name: "eql.parse_allocs", Unit: "count", Better: "lower"},
	{Name: "bgp.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "bgp.rows_out", Unit: "count", Better: "lower"},
	{Name: "storage.join_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.rows_in_per_out", Unit: "ratio", Better: "lower"},
	{Name: "core.search_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ns_per_created", Unit: "ns", Better: "lower"},
	{Name: "core.created", Unit: "count", Better: "lower"},
	{Name: "core.kept_share", Unit: "ratio", Better: "higher"},
	{Name: "core.pruned", Unit: "count", Better: "lower"},
	{Name: "core.queue_pops", Unit: "count", Better: "lower"},
	{Name: "core.peak_trees", Unit: "count", Better: "lower"},
	{Name: "core.allocs_per_search", Unit: "count", Better: "lower"},
	{Name: "exec.search_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.speedup_vs_seq", Unit: "ratio", Better: "higher"},
	{Name: "exec.busy_share", Unit: "ratio", Better: "higher"},
	{Name: "exec.stolen", Unit: "count", Better: "lower"},
	{Name: "exec.shipped", Unit: "count", Better: "lower"},
	{Name: "engine.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.bgp_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.ctp_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.join_share", Unit: "ratio", Better: "lower"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "ctpquery.run_overhead_us", Unit: "us", Better: "lower"},
	{Name: "qcache.hit_us", Unit: "us", Better: "lower"},
	{Name: "qcache.miss_overhead_us", Unit: "us", Better: "lower"},
	{Name: "qcache.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "qcache.evictions", Unit: "count", Better: "lower"},
	{Name: "qcache.coalesced", Unit: "count", Better: "higher"},
	{Name: "admission.estimate_us", Unit: "us", Better: "lower"},
	{Name: "admission.acquire_us", Unit: "us", Better: "lower"},
	{Name: "admission.queue_wait_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "admission.estimate_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.response_bytes", Unit: "count", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "obs.enabled_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "graph.snapshot_read_s", Unit: "s", Better: "lower"},
	{Name: "graph.build_s", Unit: "s", Better: "lower"},
	{Name: "graph.snapshot_bytes_per_edge", Unit: "count", Better: "lower"},
	{Name: "graph.expand_ns_per_edge", Unit: "ns", Better: "lower"},
	{Name: "graph.mutate_us_per_op", Unit: "us", Better: "lower"},
	{Name: "graph.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.compactions", Unit: "count", Better: "higher"},
	{Name: "graph.delta_edges_peak", Unit: "count", Better: "lower"},
	{Name: "graph.overlay_read_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.gather_overhead_us", Unit: "us", Better: "lower"},
	{Name: "cluster.merge_us_per_row", Unit: "us", Better: "lower"},
	{Name: "cluster.hedges", Unit: "count", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "load.generator_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.core_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.bgp_storage_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.rows_nonempty_share", Unit: "ratio", Better: "higher"},
	{Name: "cheap_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "ingest_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}

// unitOf returns the declared unit of a per-layer metric.
func unitOf(name string) string {
	for _, d := range PerLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmarks: undeclared layer metric " + name)
}
