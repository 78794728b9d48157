package serve

import (
	"strconv"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/obs"
)

// serveMetrics is the server's hot-path instrument set; everything else
// on /metrics derives from the per-scrape statsSnapshot.
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

// statsSnapshot is one consistent cut of every server counter, taken
// once per scrape and reused by both /stats and /metrics so the two
// surfaces can never disagree on the same counter mid-traffic. (The
// previous /stats handler loaded each atomic at its own point in the
// render, so e.g. `requests` and the completed-request average could
// come from different instants.)
type statsSnapshot struct {
	uptimeS        float64
	health         HealthState
	requests       int64
	failures       int64
	timeouts       int64
	sheds          int64
	drained        int64
	panics         int64
	internalErrors int64
	inFlight       int64
	avgLatencyMS   float64
	nodes, edges   int
	algorithm      string

	// search is the effort total of every executed query (Workers copied).
	search ctpquery.SearchStats

	cache     *ctpquery.CacheStats
	admission *admission.Stats
	estimator *admission.EstimatorStats

	// Live-graph state: store is nil when the served graph is frozen.
	store          *ctpquery.StoreStats
	ingestBatches  int64
	ingestOps      int64
	ingestFailures int64

	wdLevel       int
	wdTransitions int64
	wdShedBytes   int64
	hasWatchdog   bool
}

// snapshot cuts the server's counters. The atomics are loaded once,
// back to back; derived values (the latency average) are computed from
// the snapshot's own fields, never from a second load.
func (s *Server) snapshot() statsSnapshot {
	snap := statsSnapshot{
		uptimeS:        time.Since(s.started).Seconds(),
		health:         s.Health(),
		requests:       s.requests.Load(),
		failures:       s.failures.Load(),
		timeouts:       s.timeouts.Load(),
		sheds:          s.sheds.Load(),
		drained:        s.drained.Load(),
		panics:         s.panics.Load(),
		internalErrors: s.internalErrors.Load(),
		inFlight:       s.inFlight.Load(),
		algorithm:      s.base.Options().Algorithm,
	}
	busyNS := s.busyNS.Load()
	if completed := snap.requests - snap.inFlight; completed > 0 {
		snap.avgLatencyMS = ms(time.Duration(busyNS / completed))
	}
	g := s.base.Graph()
	snap.nodes, snap.edges = g.NumNodes(), g.NumEdges()
	if st, ok := g.StoreStats(); ok {
		snap.store = &st
	}
	snap.ingestBatches = s.ingestBatches.Load()
	snap.ingestOps = s.ingestOps.Load()
	snap.ingestFailures = s.ingestFailures.Load()
	s.searchMu.Lock()
	snap.search = s.search
	snap.search.Workers = append([]ctpquery.WorkerSearchStats(nil), s.search.Workers...)
	s.searchMu.Unlock()
	if cs, ok := s.base.CacheStats(); ok {
		snap.cache = &cs
	}
	if s.ctrl != nil {
		ast := s.ctrl.Stats()
		snap.admission = &ast
		est := s.est.Stats()
		snap.estimator = &est
	}
	if s.wd != nil {
		s.wd.mu.Lock()
		snap.wdLevel = s.wd.level
		snap.wdTransitions = s.wd.transitions
		snap.wdShedBytes = s.wd.shedBytes
		s.wd.mu.Unlock()
		snap.hasWatchdog = true
	}
	return snap
}

// registerCollectors wires the snapshot-derived metric families: one
// Collect callback, one snapshot per scrape.
func (s *Server) registerCollectors() {
	s.reg.Collect(func(w *obs.Exposition) {
		snap := s.snapshot()

		gauge := func(name, help string, v float64) {
			w.Family(name, help, "gauge")
			w.Sample("", nil, v)
		}
		counter := func(name, help string, v float64) {
			w.Family(name, help, "counter")
			w.Sample("", nil, v)
		}

		gauge("ctp_uptime_seconds", "Seconds since the server started.", snap.uptimeS)
		gauge("ctp_health_state", "Degradation-ladder health (0 ok, 1 degraded, 2 draining).", float64(snap.health))
		counter("ctp_requests_total", "Query requests accepted for handling.", float64(snap.requests))
		counter("ctp_failures_total", "Requests answered with an error status.", float64(snap.failures))
		counter("ctp_timeouts_total", "Requests whose CTP search hit its deadline.", float64(snap.timeouts))
		counter("ctp_sheds_total", "Requests shed by admission control (429s).", float64(snap.sheds))
		counter("ctp_drained_rejects_total", "Requests refused because the server was draining.", float64(snap.drained))
		counter("ctp_panics_total", "Panics recovered by the HTTP middleware.", float64(snap.panics))
		counter("ctp_internal_errors_total", "500s from panics contained below the handler.", float64(snap.internalErrors))
		gauge("ctp_in_flight", "Requests executing right now.", float64(snap.inFlight))
		gauge("ctp_graph_nodes", "Nodes in the served graph.", float64(snap.nodes))
		gauge("ctp_graph_edges", "Edges in the served graph.", float64(snap.edges))

		counter("ctp_search_trees_generated_total", "Provenance trees constructed across all queries.", float64(snap.search.TreesGenerated))
		counter("ctp_search_trees_recycled_total", "Candidate trees rejected as duplicates, their arena space taken back.", float64(snap.search.TreesRecycled))
		counter("ctp_search_allocations_total", "Heap allocations during searches (with -track-allocs).", float64(snap.search.Allocations))
		gauge("ctp_search_peak_queue_len", "High-water grow-queue length over all queries.", float64(snap.search.PeakQueueLen))
		gauge("ctp_search_peak_trees", "High-water live provenance count over all queries.", float64(snap.search.PeakTrees))

		if len(snap.search.Workers) > 0 {
			type wf struct {
				name, help string
				get        func(ctpquery.WorkerSearchStats) float64
			}
			for _, f := range []wf{
				{"ctp_exec_worker_ops_total", "Grow ops and exchanged tasks processed, per worker index.", func(a ctpquery.WorkerSearchStats) float64 { return float64(a.Ops) }},
				{"ctp_exec_worker_kept_total", "Provenances kept, per worker index.", func(a ctpquery.WorkerSearchStats) float64 { return float64(a.Kept) }},
				{"ctp_exec_worker_shipped_total", "Tasks routed to other workers' shards, per worker index.", func(a ctpquery.WorkerSearchStats) float64 { return float64(a.Shipped) }},
				{"ctp_exec_worker_stolen_total", "Ops stolen from peers' queues, per worker index.", func(a ctpquery.WorkerSearchStats) float64 { return float64(a.Stolen) }},
				{"ctp_exec_worker_busy_seconds_total", "Thread CPU seconds inside the worker loop, per worker index.", func(a ctpquery.WorkerSearchStats) float64 { return float64(a.BusyNS) / 1e9 }},
			} {
				w.Family(f.name, f.help, "counter")
				for i, a := range snap.search.Workers {
					w.Sample("", []obs.Label{{Name: "worker", Value: strconv.Itoa(i)}}, f.get(a))
				}
			}
		}

		if snap.cache != nil {
			cs := snap.cache
			counter("ctp_cache_hits_total", "Result-cache hits.", float64(cs.Hits))
			counter("ctp_cache_misses_total", "Result-cache misses.", float64(cs.Misses))
			counter("ctp_cache_coalesced_total", "Requests coalesced onto an in-flight identical query.", float64(cs.Coalesced))
			counter("ctp_cache_evictions_total", "Entries evicted by capacity or shedding.", float64(cs.Evictions))
			counter("ctp_cache_rejected_total", "Results refused admission to the cache.", float64(cs.Rejected))
			gauge("ctp_cache_entries", "Entries resident in the result cache.", float64(cs.Entries))
			gauge("ctp_cache_bytes", "Bytes resident in the result cache.", float64(cs.Bytes))
			gauge("ctp_cache_max_bytes", "Result-cache capacity.", float64(cs.MaxBytes))
		}

		if snap.admission != nil {
			ast := snap.admission
			classes := []struct {
				name string
				cs   admission.ClassStats
			}{{"cheap", ast.Cheap}, {"analytical", ast.Analytical}}
			labeled := func(name, help, typ string, get func(admission.ClassStats) float64) {
				w.Family(name, help, typ)
				for _, c := range classes {
					w.Sample("", []obs.Label{{Name: "class", Value: c.name}}, get(c.cs))
				}
			}
			labeled("ctp_admission_running", "Requests holding an execution slot.", "gauge",
				func(cs admission.ClassStats) float64 { return float64(cs.Running) })
			labeled("ctp_admission_queued", "Requests waiting in the class queue right now.", "gauge",
				func(cs admission.ClassStats) float64 { return float64(cs.Queued) })
			labeled("ctp_admission_peak_queued", "High-water queue depth.", "gauge",
				func(cs admission.ClassStats) float64 { return float64(cs.PeakQueued) })
			labeled("ctp_admission_admitted_total", "Requests granted an execution slot.", "counter",
				func(cs admission.ClassStats) float64 { return float64(cs.Admitted) })
			w.Family("ctp_admission_shed_total", "Requests shed by the admission layer, by class and reason.", "counter")
			for _, c := range classes {
				for _, r := range []struct {
					reason string
					v      int64
				}{{"full", c.cs.ShedFull}, {"expired", c.cs.ShedExpired}, {"budget", c.cs.ShedBudget}} {
					w.Sample("", []obs.Label{{Name: "class", Value: c.name}, {Name: "reason", Value: r.reason}}, float64(r.v))
				}
			}
			gauge("ctp_admission_in_flight_cost_units", "Summed estimated cost of in-flight requests.", ast.InFlightCost)
			gauge("ctp_admission_budget_scale", "Degradation multiplier on the admission cost budget.", ast.BudgetScale)
			if snap.estimator != nil {
				counter("ctp_admission_estimates_total", "Cost estimates produced.", float64(snap.estimator.Estimates))
				counter("ctp_admission_observations_total", "Actual-cost observations fed back.", float64(snap.estimator.Observations))
				gauge("ctp_admission_learned_shapes", "Distinct query shapes with observed feedback.", float64(snap.estimator.LearnedShapes))
			}
		}

		if snap.store != nil {
			st := snap.store
			counter("ctp_ingest_batches_total", "Mutation batches applied via POST /ingest.", float64(snap.ingestBatches))
			counter("ctp_ingest_ops_total", "Individual mutation ops applied via POST /ingest.", float64(snap.ingestOps))
			counter("ctp_ingest_failures_total", "Ingest requests answered with an error status.", float64(snap.ingestFailures))
			gauge("ctp_store_epoch", "Current graph epoch (one per applied batch; compaction keeps it).", float64(st.Epoch))
			gauge("ctp_store_base_gen", "Compacted-base generation (bumps when a compaction lands).", float64(st.BaseGen))
			gauge("ctp_store_delta_edges", "Edges resident in the delta overlay.", float64(st.DeltaEdges))
			gauge("ctp_store_added_nodes", "Nodes added since the last compaction.", float64(st.AddedNodes))
			gauge("ctp_store_dead_edges", "Base edges tombstoned since the last compaction.", float64(st.DeadEdges))
			gauge("ctp_store_pending_ops", "Delta ops accumulated toward the compaction threshold.", float64(st.PendingOps))
			gauge("ctp_store_compacting", "1 while a background compaction is rebuilding the base.", boolGauge(st.Compacting))
			counter("ctp_store_compactions_total", "Background compactions that landed a new base.", float64(st.Compactions))
			counter("ctp_store_compact_aborts_total", "Compactions aborted by a contained panic or replay failure.", float64(st.CompactAborts))
			gauge("ctp_store_last_compaction_seconds", "Wall time of the most recent compaction.", float64(st.LastCompactNS)/1e9)
		}

		if snap.hasWatchdog {
			gauge("ctp_watchdog_level", "Memory-pressure ladder level (0 none, 1 soft, 2 hard).", float64(snap.wdLevel))
			counter("ctp_watchdog_transitions_total", "Ladder level changes.", float64(snap.wdTransitions))
			counter("ctp_watchdog_shed_cache_bytes_total", "Cache bytes dropped by the watchdog.", float64(snap.wdShedBytes))
		}

		started, ended, dropped := s.tracer.SpanCounts()
		counter("ctp_trace_spans_started_total", "Spans started by the tracer.", float64(started))
		counter("ctp_trace_spans_ended_total", "Spans ended (started==ended once settled is the leak contract).", float64(ended))
		counter("ctp_trace_spans_dropped_total", "Spans ended after their trace finalized (late hedge losers).", float64(dropped))
		tStarted, tFinished, tSlow := s.tracer.TraceCounts()
		counter("ctp_traces_started_total", "Traces started.", float64(tStarted))
		counter("ctp_traces_finished_total", "Traces finalized into the flight recorder.", float64(tFinished))
		counter("ctp_traces_slow_total", "Traces past the slow-query threshold.", float64(tSlow))
	})
}

// boolGauge renders a bool as 0/1.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
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
