// Package serve is the HTTP query server behind cmd/ctpserve, factored
// out so the benchmark harness (benchmarks/, ctpmark), the smoke tests of
// internal/load and other tests can run the exact production serving path
// in-process against httptest listeners.
//
// The server serves concurrent EQL queries over one immutable graph,
// optionally defended by an admission layer (internal/admission): every
// request is priced by a cost estimator before it runs, queued in a
// bounded two-class queue (cheap requests never wait behind analytical
// enumerations), and shed with 429 + Retry-After when the queue or the
// in-flight cost budget saturates. Warm cache entries bypass the queue
// entirely via DB.Peek.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/fault"
	"ctpquery/internal/obs"
	"ctpquery/internal/wire"
)

// Request-path probe points (inert unless armed via internal/fault):
// admitted fires after a request holds its admission slot and before it
// executes; encode fires while the response is being built. Both sit
// inside the recover middleware, so the chaos suite uses them to prove
// a mid-request panic answers 500 and releases the slot.
var (
	probeQueryAdmitted = fault.Register("serve.query.admitted")
	probeQueryEncode   = fault.Register("serve.query.encode")
)

// Config tunes a Server; the DB comes separately in New.
type Config struct {
	// DefaultTimeout is the per-request budget when the request names none.
	DefaultTimeout time.Duration
	// MaxTimeout hard-caps requested budgets (0 = uncapped).
	MaxTimeout time.Duration
	// MaxRows is the default response row cap (0 = unlimited).
	MaxRows int
	// MaxParallelism caps per-request worker counts (0 = no override).
	MaxParallelism int
	// Admission, when non-nil, enables the admission layer with the given
	// controller configuration (zero values select its defaults).
	Admission *admission.Config
	// Estimator tunes the cost estimator; only read when Admission is set.
	Estimator admission.EstimatorConfig
	// MemSoftBytes, when positive, enables the memory watchdog: above
	// this live-heap watermark the server degrades (sheds cache bytes,
	// steps down default parallelism, tightens the admission budget) and
	// /healthz reports "degraded". See StartWatchdog.
	MemSoftBytes int64
	// MemHardBytes is the aggressive second watermark (default 2x soft):
	// the cache is emptied, parallelism drops to 1, and the admission
	// budget tightens further.
	MemHardBytes int64
	// WatchdogInterval is how often the watchdog samples the heap
	// (default 5s).
	WatchdogInterval time.Duration
	// DrainGrace is how long the process keeps its listener open after
	// SetDraining (cmd/ctpserve's -drain-grace). It is surfaced to
	// clients as the Retry-After of draining 503s — the earliest moment
	// a replacement instance could plausibly answer — so cluster
	// coordinators and ctpload back off instead of hammering a dying
	// shard. 0 still answers Retry-After: 1.
	DrainGrace time.Duration
	// TraceOff disables query tracing (the span API hands out nil
	// no-op spans); /metrics stays on. Tracing is on by default — the
	// disabled path costs one atomic load per request, same discipline
	// as internal/fault.
	TraceOff bool
	// TraceRing caps the flight recorder's completed-trace ring served
	// at /debug/traces (default 256).
	TraceRing int
	// SlowQuery, when positive, logs every completed trace at least
	// this slow as one structured-JSON line (cmd/ctpserve's
	// -slow-query-ms).
	SlowQuery time.Duration
	// TraceLogf receives slow-query lines (default log.Printf).
	TraceLogf func(format string, args ...any)
}

// Server serves concurrent EQL queries over one graph. The graph is
// loaded once and shared by every DB handle, so a request picking its
// own algorithm only costs a small engine struct. When the graph is live
// (-live), POST /ingest applies mutation batches; queries pin the epoch
// current at their entry, so reads and writes never block each other.
// All other mutable state is the atomic request metrics and the
// admission layer, keeping every handler safe under arbitrary
// concurrency.
type Server struct {
	base *ctpquery.DB

	defaultTimeout time.Duration
	maxTimeout     time.Duration
	maxRows        int
	maxParallelism int
	drainGrace     time.Duration

	// Admission layer; both nil when Config.Admission was nil.
	ctrl *admission.Controller
	est  *admission.Estimator

	// Degradation ladder state: health is the /healthz state machine
	// (ok/degraded/draining), parCeiling (when > 0) caps the effective
	// parallelism of every request — including the server default — and
	// wd is the memory watchdog driving both (nil without MemSoftBytes).
	health     atomic.Int32
	parCeiling atomic.Int32
	wd         *watchdog

	// testExecGate, when set by tests, runs after a request is admitted
	// and before it executes — while it holds its admission slot — so
	// tests can saturate the server deterministically.
	testExecGate func(admission.Class)

	// Ingest counters (POST /ingest; only a live graph accepts it).
	ingestBatches  atomic.Int64
	ingestOps      atomic.Int64
	ingestFailures atomic.Int64

	started        time.Time
	requests       atomic.Int64
	failures       atomic.Int64
	timeouts       atomic.Int64
	sheds          atomic.Int64 // 429 responses; disjoint from failures
	drained        atomic.Int64 // 503s refused because the server is draining
	panics         atomic.Int64 // panics recovered by the HTTP middleware
	internalErrors atomic.Int64 // 500s from panics contained below the handler
	inFlight       atomic.Int64
	busyNS         atomic.Int64 // total completed-handler time, for the average latency

	// search totals the effort of every query that executed a search, so
	// hot-path regressions show up in /stats without attaching a profiler.
	// It is touched once per executed request (never on a cache hit), so a
	// mutex around the one struct is enough.
	searchMu sync.Mutex
	search   ctpquery.SearchStats

	// Observability: the tracer owns the span pipeline and the
	// /debug/traces flight recorder; reg renders /metrics; met holds the
	// hot-path instruments (response counters, latency histograms).
	tracer *obs.Tracer
	reg    *obs.Registry
	met    *serveMetrics
}

// searchTotals copies the server's search totals.
func (s *Server) searchTotals() ctpquery.SearchStats {
	s.searchMu.Lock()
	defer s.searchMu.Unlock()
	st := s.search
	st.Workers = append([]ctpquery.WorkerSearchStats(nil), s.search.Workers...)
	return st
}

// noteSearch folds one executed query's report into the server totals.
func (s *Server) noteSearch(st ctpquery.SearchStats) {
	s.searchMu.Lock()
	defer s.searchMu.Unlock()
	// Across queries PeakTrees is a high-water mark, not the sum Add keeps
	// for the clauses of one query.
	peak := s.search.PeakTrees
	if st.PeakTrees > peak {
		peak = st.PeakTrees
	}
	s.search.Add(st)
	s.search.PeakTrees = peak
}

// resolveParallelism resolves a request's worker-count override against
// the server policy. The order is load-bearing and pinned by tests:
//
//  1. the GOMAXPROCS sentinel (negative) resolves FIRST, so a huge
//     machine cannot turn "-1" into a degree above the cap;
//  2. maxParallelism == 0 means requests may not override at all — the
//     server default wins regardless of what was asked;
//  3. otherwise the request clamps to maxParallelism. Each worker pins
//     an OS thread, so the ceiling is a resource guard, not advice.
func (s *Server) resolveParallelism(requested, serverDefault int) int {
	if s.maxParallelism <= 0 {
		return serverDefault
	}
	return ClampParallelism(requested, s.maxParallelism)
}

// ClampParallelism is the shared resolve-then-clamp: the GOMAXPROCS
// sentinel resolves before the cap so it cannot sidestep it. The server
// startup default (cmd/ctpserve) and per-request overrides both go
// through it, so the two paths cannot drift apart.
func ClampParallelism(requested, max int) int {
	if requested < 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if max > 0 && requested > max {
		requested = max
	}
	return requested
}

// New builds a server over db. A GOMAXPROCS default (negative
// Parallelism) is resolved here, once, so every comparison against the
// degradation ceiling sees a worker count.
func New(db *ctpquery.DB, cfg Config) (*Server, error) {
	if opts := db.Options(); opts.Parallelism < 0 {
		opts.Parallelism = ClampParallelism(opts.Parallelism, 0)
		var err error
		if db, err = db.WithOptions(opts); err != nil {
			return nil, err
		}
	}
	s := &Server{
		base:           db,
		defaultTimeout: cfg.DefaultTimeout,
		maxTimeout:     cfg.MaxTimeout,
		maxRows:        cfg.MaxRows,
		maxParallelism: cfg.MaxParallelism,
		drainGrace:     cfg.DrainGrace,
		started:        time.Now(),
	}
	if cfg.Admission != nil {
		g := db.Graph()
		s.ctrl = admission.NewController(*cfg.Admission)
		s.est = admission.NewEstimator(g.NumNodes(), g.NumEdges(), cfg.Estimator)
	}
	s.wd = newWatchdog(s, cfg)
	s.tracer = obs.NewTracer(obs.TraceConfig{
		Disabled:  cfg.TraceOff,
		RingSize:  cfg.TraceRing,
		SlowQuery: cfg.SlowQuery,
		Logf:      cfg.TraceLogf,
	})
	s.reg = obs.NewRegistry()
	s.met = newServeMetrics(s.reg)
	s.reg.Collect(func(e *obs.Exposition) { e.Table(s.table()) })
	if g := db.Graph(); g.IsLive() {
		g.OnCompaction(s.noteCompaction)
	}
	return s, nil
}

// Handler returns the HTTP routes: POST /query, POST /ingest (mutation
// batches; live graphs only), GET /healthz, GET /stats, GET /metrics
// (Prometheus text format), GET /debug/traces (the flight
// recorder; ?id= looks one trace up), and — when enablePprof is set —
// the net/http/pprof profiling endpoints under /debug/pprof/ (CPU,
// heap, allocs, goroutine, ...), so a live server can be profiled
// exactly like the benchmarks.
func (s *Server) Handler(enablePprof bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.reg.ServeMetrics)
	mux.HandleFunc("/debug/traces", s.tracer.ServeTraces)
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return wire.Recover(mux, s.onPanic)
}

// onPanic is the recover middleware's accounting (wire.Recover): a
// panic escaping a handler counts as a panic and a failure.
func (s *Server) onPanic(r *http.Request, rec any) string {
	s.panics.Add(1)
	s.failures.Add(1)
	return fault.Recovered("serve: "+r.URL.Path, rec).Error()
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteJSON(w, http.StatusMethodNotAllowed, wire.Error{Error: "POST only"})
		return
	}
	// A draining server refuses new queries outright — in-flight ones
	// finish, but routing fresh work at a process about to exit would
	// strand the caller mid-shutdown. 503 + Retry-After (derived from the
	// drain grace) tells well-behaved clients — the cluster coordinator,
	// ctpload's retry policy — to go elsewhere and when to come back.
	if s.Health() == HealthDraining {
		s.refuseDraining(w)
		return
	}
	start := time.Now()
	s.requests.Add(1)
	s.inFlight.Add(1)
	// Root span: adopted from the coordinator's Traceparent header when
	// present (the shard's spans then join the coordinator's trace), a
	// fresh trace otherwise. class/status feed the response counter and
	// latency histogram at exit; the deferred End finalizes the trace
	// into the flight recorder even when a contained panic unwinds.
	sp := s.tracer.Start("query", parentContext(r.Header.Get(obs.TraceHeader)))
	class, status := "none", "ok"
	defer func() {
		s.inFlight.Add(-1)
		elapsed := time.Since(start)
		s.busyNS.Add(int64(elapsed))
		s.met.responses.With(class, status).Inc()
		s.met.reqDur.With(class).Observe(elapsed.Seconds())
		if status != "ok" {
			sp.Status(status)
		}
		sp.End()
	}()

	parseSpan := sp.Child("parse")
	var req wire.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		status = "bad_request"
		parseSpan.Error(err).End()
		s.fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Query == "" {
		status = "bad_request"
		err := errors.New("missing \"query\"")
		parseSpan.Error(err).End()
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	db := s.base
	baseOpts := s.base.Options()
	// Effective parallelism: request override (clamped by policy), then
	// the degradation ceiling — under memory pressure the watchdog caps
	// even the server default, so every request steps down together.
	effK := baseOpts.Parallelism
	if req.Parallelism != nil {
		effK = s.resolveParallelism(*req.Parallelism, effK)
	}
	if c := int(s.parCeiling.Load()); c > 0 && effK > c {
		effK = c
	}
	if req.Algorithm != "" || effK != baseOpts.Parallelism {
		opts := baseOpts
		opts.Parallelism = effK
		if req.Algorithm != "" {
			opts.Algorithm = req.Algorithm
		}
		var err error
		if db, err = s.base.WithOptions(opts); err != nil {
			status = "bad_request"
			parseSpan.Error(err).End()
			s.fail(w, http.StatusBadRequest, err)
			return
		}
	}

	// Parse before admission: malformed queries are the caller's mistake
	// and answer 400 immediately — they never cost a queue slot.
	q, err := ctpquery.ParseQuery(req.Query)
	if err != nil {
		status = "bad_request"
		parseSpan.Error(err).End()
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	parseSpan.End()
	parseDur := time.Since(start)
	sp.Attr("algorithm", db.Options().Algorithm)

	ctx := obs.With(r.Context(), sp)
	timeout := s.defaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.maxTimeout > 0 && (timeout == 0 || timeout > s.maxTimeout) {
		timeout = s.maxTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var adm *wire.Admission
	var estSig uint64
	var waited time.Duration
	if s.ctrl != nil {
		// A warm cache entry answers in microseconds; letting it wait in
		// the queue would invert the whole point of the two-class split,
		// so peek first and bypass admission entirely on a hit.
		if res, ok := db.Peek(q); ok {
			class = admission.Cheap.String()
			sp.AttrBool("cache_bypass", true)
			resp := s.finishResponse(res, res.SearchStats(), ctpquery.CacheInfo{Enabled: true, Hit: true}, db, req, start, sp)
			resp.Admission = &wire.Admission{Class: admission.Cheap.String(), CacheBypass: true}
			wire.WriteJSON(w, http.StatusOK, resp)
			return
		}
		est := s.est.Estimate(q.Shape(), timeout)
		estSig = est.Sig
		class = est.Class.String()
		sp.Attr("class", class)
		release, w8, aerr := s.ctrl.Acquire(ctx, est.Class, est.Units)
		if aerr != nil {
			status = "shed"
			s.shed(w, r, est.Class, aerr)
			return
		}
		waited = w8
		defer release()
		adm = &wire.Admission{
			Class:          est.Class.String(),
			EstimatedUnits: est.Units,
			Learned:        est.Learned,
			QueueWaitMS:    ms(waited),
		}
		if gate := s.testExecGate; gate != nil {
			gate(est.Class)
		}
	}
	probeQueryAdmitted.Hit()

	res, cinfo, err := db.RunWithInfo(ctx, q)
	switch {
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
		status = "canceled"
		s.failures.Add(1)
		return
	case err != nil:
		// Contained panics (exec worker, sequential kernel, engine,
		// singleflight leader) are OUR fault and answer 500; everything
		// else the engine reports is a problem with the query — 400.
		if ctpquery.IsInternalError(err) {
			status = "internal_error"
			s.internalErrors.Add(1)
			s.fail(w, http.StatusInternalServerError, err)
			return
		}
		status = "bad_request"
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if res.TimedOut() {
		s.timeouts.Add(1)
		sp.AttrBool("timed_out", true)
	}
	sp.AttrBool("cache_hit", cinfo.Hit).AttrBool("coalesced", cinfo.Coalesced)
	st := res.SearchStats()
	// Feed the estimator and the /stats effort aggregates only when this
	// request actually executed a search: a cache hit (or a coalesced
	// waiter) re-reports the leader's SearchStats and would inflate both
	// with work that never happened.
	if !cinfo.Hit && !cinfo.Coalesced {
		s.noteSearch(st)
		if s.est != nil {
			actual := st.CostUnits()
			s.est.Observe(estSig, actual)
			adm.ActualUnits = actual
		}
		// Stage histograms describe work this handler actually did; a hit
		// or coalesced waiter would re-observe the leader's timings.
		bgp, ctp, join := res.Timings()
		s.met.observeStages(parseDur, waited, bgp, ctp, join)
	}
	sp.AttrInt("rows", int64(res.Len()))

	resp := s.finishResponse(res, st, cinfo, db, req, start, sp)
	resp.Admission = adm
	wire.WriteJSON(w, http.StatusOK, resp)
}

// finishResponse encodes results with the request's row cap and cache
// report applied, under an "encode" child span of the request's root.
func (s *Server) finishResponse(res *ctpquery.Results, st ctpquery.SearchStats, cinfo ctpquery.CacheInfo, db *ctpquery.DB, req wire.Request, start time.Time, sp *obs.Span) wire.Response[wire.Row] {
	maxRows := s.maxRows
	if req.MaxRows > 0 && (maxRows == 0 || req.MaxRows < maxRows) {
		maxRows = req.MaxRows
	}
	encSpan := sp.Child("encode")
	// Deferred (End is idempotent): a panic inside the encode — the
	// serve.query.encode probe is armed exactly there — must not leak
	// the span past the containment middleware.
	defer encSpan.End()
	encStart := time.Now()
	resp := s.encodeResults(res, st, db.Options().Algorithm, maxRows, req.OmitTrees, req.IncludeKeys, time.Since(start))
	s.met.stageDur.With("encode").Observe(time.Since(encStart).Seconds())
	encSpan.End()
	if cinfo.Enabled {
		resp.Cache = &wire.Cache{Hit: cinfo.Hit, Coalesced: cinfo.Coalesced}
	}
	resp.TraceID = sp.TraceID()
	return resp
}

// drainRetrySeconds derives the Retry-After of draining 503s (and the
// floor for hard-degraded sheds) from the configured drain grace,
// rounded up so a sub-second grace still backs clients off a beat.
func (s *Server) drainRetrySeconds() int {
	secs := int((s.drainGrace + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// refuseDraining answers a request a draining server will not take: 503
// with the drain-derived Retry-After in the header and the body.
func (s *Server) refuseDraining(w http.ResponseWriter) {
	s.drained.Add(1)
	retry := s.drainRetrySeconds()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	wire.WriteJSON(w, http.StatusServiceUnavailable, wire.Error{
		Error:       "draining: server is shutting down",
		RetryAfterS: retry,
	})
}

// hardDegraded reports whether the memory watchdog currently sits at the
// hard watermark.
func (s *Server) hardDegraded() bool {
	if s.wd == nil {
		return false
	}
	s.wd.mu.Lock()
	defer s.wd.mu.Unlock()
	return s.wd.level == pressureHard
}

// shed answers a request the admission layer rejected: 429 with a
// Retry-After estimate. Sheds are deliberately not failures — the
// request was well-formed and the server healthy, just saturated — and
// the shed request never executed, so it must leave no trace in the
// search-effort aggregates or the result cache.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, class admission.Class, err error) {
	s.sheds.Add(1)
	if r.Context().Err() != nil {
		// Client gone (or its deadline spent) while queued; don't write.
		return
	}
	retry := s.ctrl.RetryAfter(class)
	// Under hard memory pressure the load estimate behind RetryAfter is
	// an underestimate — the watchdog has already quartered the budget to
	// claw heap back, and inviting retries in seconds hammers a server
	// fighting for its life. Floor the backoff at the drain grace, the
	// same "come back when this instance is replaced or recovered" signal
	// draining 503s carry.
	if s.hardDegraded() {
		if floor := s.drainRetrySeconds(); retry < floor {
			retry = floor
		}
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	wire.WriteJSON(w, http.StatusTooManyRequests, wire.Error{
		Error:       fmt.Sprintf("overloaded (%s class): %v", class, err),
		RetryAfterS: retry,
	})
}

func (s *Server) encodeResults(res *ctpquery.Results, st ctpquery.SearchStats, algorithm string, maxRows int, omitTrees, includeKeys bool, total time.Duration) wire.Response[wire.Row] {
	probeQueryEncode.Hit()
	resp := wire.Response[wire.Row]{
		Columns:   res.Columns(),
		Rows:      []wire.Row{},
		RowCount:  res.Len(),
		TimedOut:  res.TimedOut(),
		Truncated: res.Truncated(),
		Algorithm: algorithm,
		Search:    searchReport(st),
	}
	bgp, ctp, join := res.Timings()
	resp.TimingsMS = wire.Timings{BGP: ms(bgp), CTP: ms(ctp), Join: ms(join), Total: ms(total)}

	n := res.Len()
	if maxRows > 0 && n > maxRows {
		n = maxRows
		resp.RowsTruncated = true
	}
	for i := 0; i < n; i++ {
		if includeKeys {
			resp.RowKeys = append(resp.RowKeys, res.MergeKey(i))
		}
		row := res.Row(i)
		out := make(wire.Row, len(resp.Columns))
		for _, col := range resp.Columns {
			if !res.IsTreeColumn(col) {
				id, _ := row.Node(col)
				v := int32(id)
				out[col] = wire.Cell{ID: &v, Label: row.Label(col)}
				continue
			}
			t := row.Tree(col)
			if t == nil {
				out[col] = wire.Cell{}
				continue
			}
			tj := &wire.Tree{Size: t.Size()}
			if !omitTrees {
				// Render against the run's own pinned view, not the server's
				// live graph: a mutation landing between execution and
				// encoding must not relabel (or misname) this result's nodes.
				tj.Root = res.Graph().NodeLabel(t.Root())
				for _, e := range t.Edges() {
					tj.Edges = append(tj.Edges, wire.Edge{Src: e.SrcLabel, Label: e.Label, Dst: e.DstLabel})
				}
			}
			out[col] = wire.Cell{Tree: tj}
		}
		resp.Rows = append(resp.Rows, out)
	}
	return resp
}

// searchReport renders a search report for the wire: one query's on
// /query, the server's totals on /stats.
func searchReport(st ctpquery.SearchStats) *wire.Search {
	r := &wire.Search{
		TreesGenerated: st.TreesGenerated,
		TreesKept:      st.TreesKept,
		TreesRecycled:  st.TreesRecycled,
		PeakTrees:      st.PeakTrees,
		PeakQueueLen:   st.PeakQueueLen,
		Allocations:    st.Allocations,
		BGPExamined:    st.BGPExamined,
		BGPRows:        st.BGPRows,
		Parallelism:    st.Parallelism,
	}
	for _, ws := range st.Workers {
		r.Workers = append(r.Workers, wire.Worker{
			Ops:     ws.Ops,
			Kept:    ws.Kept,
			Shipped: ws.Shipped,
			BusyMS:  float64(ws.BusyNS) / 1e6,
		})
	}
	return r
}

// handleHealth reports the degradation-ladder state: "ok" and
// "degraded" answer 200 (a degraded server still serves), "draining"
// answers 503 so load balancers stop routing new work during graceful
// shutdown.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h == HealthDraining {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(s.drainRetrySeconds()))
	}
	g := s.base.Graph()
	payload := map[string]any{
		"status": h.String(),
		"nodes":  g.NumNodes(),
		"edges":  g.NumEdges(),
	}
	if g.IsLive() {
		payload["live"] = true
		payload["epoch"] = g.Epoch()
	}
	if s.wd != nil {
		payload["memory"] = obs.JSON(s.wd.rows())
	}
	wire.WriteJSON(w, code, payload)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	wire.WriteJSON(w, http.StatusOK, obs.JSON(s.table()))
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.failures.Add(1)
	wire.WriteJSON(w, code, wire.Error{Error: err.Error()})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
