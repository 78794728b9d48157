package serve

import (
	"strconv"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/obs"
)

// serveMetrics is the server's hot-path instrument set; everything else
// on /metrics is the counter table (Server.table).
type serveMetrics struct {
	// responses counts completed responses by admission class and
	// terminal status (ok, bad_request, shed, canceled, internal_error,
	// error, drained).
	responses *obs.CounterVec
	// reqDur is the end-to-end handler latency by class.
	reqDur *obs.HistogramVec
	// stageDur is the per-stage latency breakdown (parse,
	// admission_wait, bgp, ctp, join, encode) — the server-side
	// Figure 11 decomposition as real histograms, so stage p99s are
	// observable without a profiler.
	stageDur *obs.HistogramVec
	// ingestDur is the POST /ingest handler latency by terminal status
	// (ok, bad_request, internal_error), so write-path slowdowns — say a
	// compaction replay storm — are visible next to the read-path p99s.
	ingestDur *obs.HistogramVec
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	return &serveMetrics{
		responses: reg.NewCounterVec("ctp_responses_total",
			"Completed query responses by admission class and terminal status.",
			"class", "status"),
		reqDur: reg.NewHistogramVec("ctp_request_duration_seconds",
			"End-to-end /query handler latency by admission class.",
			nil, "class"),
		stageDur: reg.NewHistogramVec("ctp_stage_duration_seconds",
			"Per-stage query latency (parse, admission_wait, bgp, ctp, join, encode).",
			nil, "stage"),
		ingestDur: reg.NewHistogramVec("ctp_ingest_duration_seconds",
			"End-to-end /ingest handler latency by terminal status.",
			nil, "status"),
	}
}

// observeStages feeds one executed query's stage timings into the
// per-stage histograms.
func (m *serveMetrics) observeStages(parse, wait, bgp, ctp, join time.Duration) {
	m.stageDur.With("parse").Observe(parse.Seconds())
	m.stageDur.With("admission_wait").Observe(wait.Seconds())
	m.stageDur.With("bgp").Observe(bgp.Seconds())
	m.stageDur.With("ctp").Observe(ctp.Seconds())
	m.stageDur.With("join").Observe(join.Seconds())
}

// table is the server's counter table (obs.Stat): /stats renders its
// keys, /metrics its families, each value loaded once per render. Rows
// are in /metrics order; /stats sorts its keys itself.
func (s *Server) table() []obs.Stat {
	// The average is derived from these three loads, never from a second.
	requests, inFlight, busyNS := s.requests.Load(), s.inFlight.Load(), s.busyNS.Load()
	var avgMS float64
	if completed := requests - inFlight; completed > 0 {
		avgMS = ms(time.Duration(busyNS / completed))
	}
	h := s.Health()
	g := s.base.Graph()
	search := s.searchTotals()
	rows := []obs.Stat{
		{Key: "uptime_s", Name: "ctp_uptime_seconds", Help: "Seconds since the server started.", Type: "gauge", Value: time.Since(s.started).Seconds()},
		{Key: "health", Value: h.String()},
		{Name: "ctp_health_state", Help: "Degradation-ladder health (0 ok, 1 degraded, 2 draining).", Type: "gauge", Value: int(h)},
		{Key: "requests", Name: "ctp_requests_total", Help: "Query requests accepted for handling.", Type: "counter", Value: requests},
		{Key: "failures", Name: "ctp_failures_total", Help: "Requests answered with an error status.", Type: "counter", Value: s.failures.Load()},
		{Key: "timeouts", Name: "ctp_timeouts_total", Help: "Requests whose CTP search hit its deadline.", Type: "counter", Value: s.timeouts.Load()},
		{Key: "sheds", Name: "ctp_sheds_total", Help: "Requests shed by admission control (429s).", Type: "counter", Value: s.sheds.Load()},
		{Key: "drained_rejects", Name: "ctp_drained_rejects_total", Help: "Requests refused because the server was draining.", Type: "counter", Value: s.drained.Load()},
		{Key: "panics", Name: "ctp_panics_total", Help: "Panics recovered by the HTTP middleware.", Type: "counter", Value: s.panics.Load()},
		{Key: "internal_errors", Name: "ctp_internal_errors_total", Help: "500s from panics contained below the handler.", Type: "counter", Value: s.internalErrors.Load()},
		{Key: "in_flight", Name: "ctp_in_flight", Help: "Requests executing right now.", Type: "gauge", Value: inFlight},
		{Key: "avg_latency_ms", Value: avgMS},
		{Key: "graph.nodes", Name: "ctp_graph_nodes", Help: "Nodes in the served graph.", Type: "gauge", Value: g.NumNodes()},
		{Key: "graph.edges", Name: "ctp_graph_edges", Help: "Edges in the served graph.", Type: "gauge", Value: g.NumEdges()},
		{Key: "algorithm", Value: s.base.Options().Algorithm},
		{Key: "algorithms", Value: ctpquery.Algorithms()},
		{Key: "search", Value: searchReport(search)},
		{Name: "ctp_search_trees_generated_total", Help: "Provenance trees constructed across all queries.", Type: "counter", Value: search.TreesGenerated},
		{Name: "ctp_search_trees_recycled_total", Help: "Candidate trees rejected as duplicates, their arena space taken back.", Type: "counter", Value: search.TreesRecycled},
		{Name: "ctp_search_allocations_total", Help: "Heap allocations during searches (with -track-allocs).", Type: "counter", Value: search.Allocations},
		{Name: "ctp_search_peak_queue_len", Help: "High-water grow-queue length over all queries.", Type: "gauge", Value: search.PeakQueueLen},
		{Name: "ctp_search_peak_trees", Help: "High-water live provenance count over all queries.", Type: "gauge", Value: search.PeakTrees},
	}
	for _, f := range []struct {
		name, help string
		get        func(ctpquery.WorkerSearchStats) float64
	}{
		{"ctp_exec_worker_ops_total", "Grow ops and exchanged tasks processed, per worker index.", func(a ctpquery.WorkerSearchStats) float64 { return float64(a.Ops) }},
		{"ctp_exec_worker_kept_total", "Provenances kept, per worker index.", func(a ctpquery.WorkerSearchStats) float64 { return float64(a.Kept) }},
		{"ctp_exec_worker_shipped_total", "Tasks routed to other workers' shards, per worker index.", func(a ctpquery.WorkerSearchStats) float64 { return float64(a.Shipped) }},
		{"ctp_exec_worker_busy_seconds_total", "Thread CPU seconds inside the worker loop, per worker index.", func(a ctpquery.WorkerSearchStats) float64 { return float64(a.BusyNS) / 1e9 }},
	} {
		for i, a := range search.Workers {
			rows = append(rows, obs.Stat{Name: f.name, Help: f.help, Type: "counter",
				Labels: []obs.Label{{Name: "worker", Value: strconv.Itoa(i)}}, Value: f.get(a)})
		}
	}

	if cs, ok := s.base.CacheStats(); ok {
		rows = append(rows,
			obs.Stat{Key: "cache.hits", Name: "ctp_cache_hits_total", Help: "Result-cache hits.", Type: "counter", Value: cs.Hits},
			obs.Stat{Key: "cache.misses", Name: "ctp_cache_misses_total", Help: "Result-cache misses.", Type: "counter", Value: cs.Misses},
			obs.Stat{Key: "cache.coalesced", Name: "ctp_cache_coalesced_total", Help: "Requests coalesced onto an in-flight identical query.", Type: "counter", Value: cs.Coalesced},
			obs.Stat{Key: "cache.evictions", Name: "ctp_cache_evictions_total", Help: "Entries evicted by capacity or shedding.", Type: "counter", Value: cs.Evictions},
			obs.Stat{Key: "cache.rejected", Name: "ctp_cache_rejected_total", Help: "Results refused admission to the cache.", Type: "counter", Value: cs.Rejected},
			obs.Stat{Key: "cache.entries", Name: "ctp_cache_entries", Help: "Entries resident in the result cache.", Type: "gauge", Value: cs.Entries},
			obs.Stat{Key: "cache.bytes", Name: "ctp_cache_bytes", Help: "Bytes resident in the result cache.", Type: "gauge", Value: cs.Bytes},
			obs.Stat{Key: "cache.max_bytes", Name: "ctp_cache_max_bytes", Help: "Result-cache capacity.", Type: "gauge", Value: cs.MaxBytes},
		)
	}

	if s.ctrl != nil {
		ast, est := s.ctrl.Stats(), s.est.Stats()
		classes := []struct {
			name string
			cs   admission.ClassStats
		}{{"cheap", ast.Cheap}, {"analytical", ast.Analytical}}
		for _, f := range []struct {
			key, name, help, typ string
			get                  func(admission.ClassStats) int64
		}{
			{"running", "ctp_admission_running", "Requests holding an execution slot.", "gauge", func(cs admission.ClassStats) int64 { return int64(cs.Running) }},
			{"queued", "ctp_admission_queued", "Requests waiting in the class queue right now.", "gauge", func(cs admission.ClassStats) int64 { return int64(cs.Queued) }},
			{"peak_queued", "ctp_admission_peak_queued", "High-water queue depth.", "gauge", func(cs admission.ClassStats) int64 { return int64(cs.PeakQueued) }},
			{"admitted", "ctp_admission_admitted_total", "Requests granted an execution slot.", "counter", func(cs admission.ClassStats) int64 { return cs.Admitted }},
		} {
			for _, c := range classes {
				rows = append(rows, obs.Stat{Key: "admission." + c.name + "." + f.key, Name: f.name, Help: f.help, Type: f.typ,
					Labels: []obs.Label{{Name: "class", Value: c.name}}, Value: f.get(c.cs)})
			}
		}
		for _, c := range classes {
			for _, r := range []struct {
				key, reason string
				v           int64
			}{{"shed_full", "full", c.cs.ShedFull}, {"shed_expired", "expired", c.cs.ShedExpired}, {"shed_budget", "budget", c.cs.ShedBudget}} {
				rows = append(rows, obs.Stat{Key: "admission." + c.name + "." + r.key, Name: "ctp_admission_shed_total",
					Help: "Requests shed by the admission layer, by class and reason.", Type: "counter",
					Labels: []obs.Label{{Name: "class", Value: c.name}, {Name: "reason", Value: r.reason}}, Value: r.v})
			}
			rows = append(rows,
				obs.Stat{Key: "admission." + c.name + ".shed", Value: c.cs.Shed()},
				obs.Stat{Key: "admission." + c.name + ".avg_wait_ms", Value: c.cs.AvgWaitMS})
		}
		rows = append(rows,
			obs.Stat{Key: "admission.in_flight_cost_units", Name: "ctp_admission_in_flight_cost_units", Help: "Summed estimated cost of in-flight requests.", Type: "gauge", Value: ast.InFlightCost},
			obs.Stat{Key: "admission.budget_scale", Name: "ctp_admission_budget_scale", Help: "Degradation multiplier on the admission cost budget.", Type: "gauge", Value: ast.BudgetScale},
			obs.Stat{Key: "admission.estimator.estimates", Name: "ctp_admission_estimates_total", Help: "Cost estimates produced.", Type: "counter", Value: est.Estimates},
			obs.Stat{Key: "admission.estimator.observations", Name: "ctp_admission_observations_total", Help: "Actual-cost observations fed back.", Type: "counter", Value: est.Observations},
			obs.Stat{Key: "admission.estimator.learned_shapes", Name: "ctp_admission_learned_shapes", Help: "Distinct query shapes with observed feedback.", Type: "gauge", Value: est.LearnedShapes},
		)
	}

	if st, ok := g.StoreStats(); ok {
		rows = append(rows,
			obs.Stat{Key: "ingest.batches", Name: "ctp_ingest_batches_total", Help: "Mutation batches applied via POST /ingest.", Type: "counter", Value: s.ingestBatches.Load()},
			obs.Stat{Key: "ingest.ops", Name: "ctp_ingest_ops_total", Help: "Individual mutation ops applied via POST /ingest.", Type: "counter", Value: s.ingestOps.Load()},
			obs.Stat{Key: "ingest.failures", Name: "ctp_ingest_failures_total", Help: "Ingest requests answered with an error status.", Type: "counter", Value: s.ingestFailures.Load()},
		)
		rows = append(rows, storeRows("store.", st)...)
	}

	if s.wd != nil {
		// The watchdog's keys belong to /healthz's "memory" object, not to
		// /stats: here it contributes its families only.
		for _, r := range s.wd.rows() {
			r.Key = ""
			rows = append(rows, r)
		}
	}

	started, ended, dropped := s.tracer.SpanCounts()
	tStarted, tFinished, tSlow := s.tracer.TraceCounts()
	return append(rows,
		obs.Stat{Name: "ctp_trace_spans_started_total", Help: "Spans started by the tracer.", Type: "counter", Value: started},
		obs.Stat{Name: "ctp_trace_spans_ended_total", Help: "Spans ended (started==ended once settled is the leak contract).", Type: "counter", Value: ended},
		obs.Stat{Name: "ctp_trace_spans_dropped_total", Help: "Spans ended after their trace finalized (late hedge losers).", Type: "counter", Value: dropped},
		obs.Stat{Name: "ctp_traces_started_total", Help: "Traces started.", Type: "counter", Value: tStarted},
		obs.Stat{Name: "ctp_traces_finished_total", Help: "Traces finalized into the flight recorder.", Type: "counter", Value: tFinished},
		obs.Stat{Name: "ctp_traces_slow_total", Help: "Traces past the slow-query threshold.", Type: "counter", Value: tSlow},
	)
}

// Tracer exposes the server's tracer (flight recorder, span
// accounting) to tests and the in-process smokes.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Registry exposes the server's metric registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// parentContext extracts a propagated trace context from the request's
// Traceparent header (the coordinator→shard join); zero when absent.
func parentContext(hdr string) obs.SpanContext {
	if hdr == "" {
		return obs.SpanContext{}
	}
	sc, _ := obs.ParseTraceparent(hdr)
	return sc
}
