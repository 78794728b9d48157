// Package serve is the HTTP query server behind cmd/ctpserve, factored
// out so the workload generator (cmd/ctpload) and tests can run the
// exact production serving path in-process against httptest listeners.
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

// New builds a server over db.
func New(db *ctpquery.DB, cfg Config) (*Server, error) {
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
	s.registerCollectors()
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
	return s.recoverMiddleware(mux)
}

// statusWriter tracks whether a handler already wrote headers, so the
// recover middleware knows whether a 500 can still be sent.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// recoverMiddleware is the server's outermost containment boundary: a
// panic escaping a handler answers 500 with a structured error body
// (when the response hasn't started) instead of tearing down the
// connection — and the process keeps serving. Handler-registered defers
// (admission release, in-flight accounting) run during the unwind
// before this recover, so a panicking request can never leak its
// admission slot.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// The stdlib's own deliberate abort; not ours to swallow.
				panic(rec)
			}
			pe := fault.Recovered("serve: "+r.URL.Path, rec)
			s.panics.Add(1)
			s.failures.Add(1)
			if !sw.wrote {
				writeJSON(sw, http.StatusInternalServerError, errorResponse{Error: pe.Error()})
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// queryRequest is the JSON body of POST /query.
type queryRequest struct {
	// Query is the EQL query text (required).
	Query string `json:"query"`
	// TimeoutMS bounds this request's CTP searches, in milliseconds;
	// capped by the server's -max-timeout. 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms"`
	// Algorithm overrides the server's CTP algorithm for this request
	// (BFT, BFT-M, BFT-AM, GAM, ESP, MoESP, LESP, MoLESP).
	Algorithm string `json:"algorithm"`
	// Parallelism overrides the server's per-search worker count for this
	// request: 0 forces the sequential kernel, -1 GOMAXPROCS, K > 1
	// shards the search across K workers, clamped to the server's
	// -max-parallelism. Absent = server default (-parallelism flag).
	Parallelism *int `json:"parallelism"`
	// MaxRows caps the rows serialized into the response; capped by the
	// server's -max-rows. 0 uses the server default.
	MaxRows int `json:"max_rows"`
	// OmitTrees leaves connecting trees out of the response (tree cells
	// then carry only the edge count), trimming payloads for callers that
	// only need the bindings.
	OmitTrees bool `json:"omit_trees"`
	// IncludeKeys adds per-row canonical merge keys (row_keys) to the
	// response — the scatter-gather merge contract a cluster coordinator
	// (internal/cluster) orders and dedups gathered rows by.
	IncludeKeys bool `json:"include_keys"`
}

// cell is one value of a result row: a node (ID + label) or, for CONNECT
// tree variables, a connecting tree.
type cell struct {
	ID    *int32    `json:"id,omitempty"`
	Label string    `json:"label,omitempty"`
	Tree  *treeJSON `json:"tree,omitempty"`
}

type treeJSON struct {
	Size  int        `json:"size"`
	Root  string     `json:"root,omitempty"`
	Edges []edgeJSON `json:"edges,omitempty"`
}

type edgeJSON struct {
	Src   string `json:"src"`
	Label string `json:"label"`
	Dst   string `json:"dst"`
}

// queryResponse is the JSON body answering POST /query.
type queryResponse struct {
	Columns []string          `json:"columns"`
	Rows    []map[string]cell `json:"rows"`
	// RowKeys, present when the request set include_keys, carries one
	// canonical merge key per serialized row (ctpquery.Results.MergeKey):
	// identical logical rows on different replicas encode identically,
	// and lexicographic key order is the collector's canonical result
	// order, so a coordinator can merge gathered responses
	// deterministically.
	RowKeys []string `json:"row_keys,omitempty"`
	// RowCount is the full result size; len(Rows) may be smaller when
	// max_rows trimmed the payload (flagged by RowsTruncated).
	RowCount      int    `json:"row_count"`
	RowsTruncated bool   `json:"rows_truncated,omitempty"`
	TimedOut      bool   `json:"timed_out"`
	Truncated     bool   `json:"truncated,omitempty"`
	Algorithm     string `json:"algorithm"`
	TimingsMS     struct {
		BGP   float64 `json:"bgp"`
		CTP   float64 `json:"ctp"`
		Join  float64 `json:"join"`
		Total float64 `json:"total"`
	} `json:"timings_ms"`
	// Search reports the aggregated CTP search effort of this query. On a
	// cache hit it is the effort of the run that populated the entry, not
	// of this request (which searched nothing).
	Search searchJSON `json:"search"`
	// Cache reports how the result cache served this request; absent when
	// the server runs without -cache-bytes.
	Cache *cacheJSON `json:"cache,omitempty"`
	// Admission reports how the admission layer scheduled this request;
	// absent when the server runs without admission control.
	Admission *admissionJSON `json:"admission,omitempty"`
	// TraceID identifies this request's trace in the flight recorder
	// (GET /debug/traces?id=); absent when tracing is disabled. Under a
	// cluster coordinator it is the coordinator's trace ID, adopted from
	// the propagated Traceparent header, so the shard's spans and the
	// coordinator's gather join into one trace.
	TraceID string `json:"trace_id,omitempty"`
}

// cacheJSON is the per-request cache report.
type cacheJSON struct {
	// Hit: served from a stored entry, no search ran.
	Hit bool `json:"hit"`
	// Coalesced: this request waited on an identical in-flight query
	// instead of running its own search (singleflight).
	Coalesced bool `json:"coalesced"`
}

// admissionJSON is the per-request admission report: what the request
// was estimated to cost, what it actually cost, and what that cost it
// in queueing.
type admissionJSON struct {
	// Class is the scheduling class ("cheap" or "analytical").
	Class string `json:"class"`
	// EstimatedUnits is the pre-execution cost estimate.
	EstimatedUnits float64 `json:"estimated_units"`
	// ActualUnits is the measured search effort (only for requests that
	// executed a search — absent on cache hits and coalesced waiters).
	ActualUnits float64 `json:"actual_units,omitempty"`
	// Learned reports whether the estimate came from observed feedback
	// rather than the static model.
	Learned bool `json:"learned,omitempty"`
	// QueueWaitMS is time spent waiting for an execution slot.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// CacheBypass: a warm cache entry answered this request without it
	// ever entering the admission queue.
	CacheBypass bool `json:"cache_bypass,omitempty"`
}

// searchJSON mirrors ctpquery.SearchStats for the wire.
type searchJSON struct {
	TreesGenerated int    `json:"trees_generated"`
	TreesKept      int    `json:"trees_kept"`
	TreesRecycled  int    `json:"trees_recycled"`
	PeakTrees      int    `json:"peak_trees"`
	PeakQueueLen   int    `json:"peak_queue_len"`
	Allocations    uint64 `json:"allocations"`
	// BGPExamined and BGPRows are the edges BGP evaluation examined and
	// the rows it materialized (absent for queries without a BGP).
	BGPExamined int `json:"bgp_examined,omitempty"`
	BGPRows     int `json:"bgp_rows,omitempty"`
	// Parallelism is the worker count the query's searches ran with (0 =
	// sequential kernel); Workers breaks the effort down per worker.
	Parallelism int          `json:"parallelism,omitempty"`
	Workers     []workerJSON `json:"workers,omitempty"`
}

// workerJSON is one search worker's share of a query.
type workerJSON struct {
	Ops     int     `json:"ops"`
	Kept    int     `json:"kept"`
	Shipped int     `json:"shipped"`
	Stolen  int     `json:"stolen"`
	BusyMS  float64 `json:"busy_ms"`
}

type errorResponse struct {
	Error string `json:"error"`
	// RetryAfterS mirrors the Retry-After header on 429 responses, for
	// clients that only read bodies.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	// A draining server refuses new queries outright — in-flight ones
	// finish, but routing fresh work at a process about to exit would
	// strand the caller mid-shutdown. 503 + Retry-After (derived from the
	// drain grace) tells well-behaved clients — the cluster coordinator,
	// ctpload's retry policy — to go elsewhere and when to come back.
	if s.Health() == HealthDraining {
		s.drained.Add(1)
		retry := s.drainRetrySeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error:       "draining: server is shutting down",
			RetryAfterS: retry,
		})
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
	var req queryRequest
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

	var adm *admissionJSON
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
			resp.Admission = &admissionJSON{Class: admission.Cheap.String(), CacheBypass: true}
			writeJSON(w, http.StatusOK, resp)
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
		adm = &admissionJSON{
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
	writeJSON(w, http.StatusOK, resp)
}

// finishResponse encodes results with the request's row cap and cache
// report applied, under an "encode" child span of the request's root.
func (s *Server) finishResponse(res *ctpquery.Results, st ctpquery.SearchStats, cinfo ctpquery.CacheInfo, db *ctpquery.DB, req queryRequest, start time.Time, sp *obs.Span) queryResponse {
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
		resp.Cache = &cacheJSON{Hit: cinfo.Hit, Coalesced: cinfo.Coalesced}
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
	writeJSON(w, http.StatusTooManyRequests, errorResponse{
		Error:       fmt.Sprintf("overloaded (%s class): %v", class, err),
		RetryAfterS: retry,
	})
}

func (s *Server) encodeResults(res *ctpquery.Results, st ctpquery.SearchStats, algorithm string, maxRows int, omitTrees, includeKeys bool, total time.Duration) queryResponse {
	probeQueryEncode.Hit()
	resp := queryResponse{
		Columns:   res.Columns(),
		Rows:      []map[string]cell{},
		RowCount:  res.Len(),
		TimedOut:  res.TimedOut(),
		Truncated: res.Truncated(),
		Algorithm: algorithm,
	}
	bgp, ctp, join := res.Timings()
	resp.TimingsMS.BGP = ms(bgp)
	resp.TimingsMS.CTP = ms(ctp)
	resp.TimingsMS.Join = ms(join)
	resp.TimingsMS.Total = ms(total)
	resp.Search = searchJSON{
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
		resp.Search.Workers = append(resp.Search.Workers, workerJSON{
			Ops:     ws.Ops,
			Kept:    ws.Kept,
			Shipped: ws.Shipped,
			Stolen:  ws.Stolen,
			BusyMS:  float64(ws.BusyNS) / 1e6,
		})
	}

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
		out := make(map[string]cell, len(resp.Columns))
		for _, col := range resp.Columns {
			if !res.IsTreeColumn(col) {
				id, _ := row.Node(col)
				v := int32(id)
				out[col] = cell{ID: &v, Label: row.Label(col)}
				continue
			}
			t := row.Tree(col)
			if t == nil {
				out[col] = cell{}
				continue
			}
			tj := &treeJSON{Size: t.Size()}
			if !omitTrees {
				// Render against the run's own pinned view, not the server's
				// live graph: a mutation landing between execution and
				// encoding must not relabel (or misname) this result's nodes.
				tj.Root = res.Graph().NodeLabel(t.Root())
				for _, e := range t.Edges() {
					tj.Edges = append(tj.Edges, edgeJSON{Src: e.SrcLabel, Label: e.Label, Dst: e.DstLabel})
				}
			}
			out[col] = cell{Tree: tj}
		}
		resp.Rows = append(resp.Rows, out)
	}
	return resp
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
		payload["memory"] = s.wd.snapshot()
	}
	writeJSON(w, code, payload)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// One consistent snapshot backs the whole render — the same cut
	// /metrics scrapes use — so no two fields of the payload can come
	// from different instants.
	snap := s.snapshot()
	payload := map[string]any{
		"uptime_s":        snap.uptimeS,
		"health":          snap.health.String(),
		"requests":        snap.requests,
		"failures":        snap.failures,
		"timeouts":        snap.timeouts,
		"sheds":           snap.sheds,
		"drained_rejects": snap.drained,
		"panics":          snap.panics,
		"internal_errors": snap.internalErrors,
		"in_flight":       snap.inFlight,
		"avg_latency_ms":  snap.avgLatencyMS,
		"graph":           map[string]int{"nodes": snap.nodes, "edges": snap.edges},
		"algorithm":       snap.algorithm,
		"algorithms":      ctpquery.Algorithms(),
		"search": map[string]any{
			"trees_generated": snap.search.TreesGenerated,
			"trees_recycled":  snap.search.TreesRecycled,
			"allocations":     snap.search.Allocations,
			"peak_queue_len":  snap.search.PeakQueueLen,
			"peak_trees":      snap.search.PeakTrees,
			"workers":         workersJSON(snap.search.Workers),
		},
	}
	if snap.store != nil {
		payload["store"] = storeJSON(*snap.store)
		payload["ingest"] = map[string]any{
			"batches":  snap.ingestBatches,
			"ops":      snap.ingestOps,
			"failures": snap.ingestFailures,
		}
	}
	if snap.cache != nil {
		cs := snap.cache
		payload["cache"] = map[string]any{
			"hits":      cs.Hits,
			"misses":    cs.Misses,
			"coalesced": cs.Coalesced,
			"evictions": cs.Evictions,
			"rejected":  cs.Rejected,
			"entries":   cs.Entries,
			"bytes":     cs.Bytes,
			"max_bytes": cs.MaxBytes,
		}
	}
	if snap.admission != nil {
		cst := snap.admission
		payload["admission"] = map[string]any{
			"cheap":                classStatsJSON(cst.Cheap),
			"analytical":           classStatsJSON(cst.Analytical),
			"in_flight_cost_units": cst.InFlightCost,
			"budget_scale":         cst.BudgetScale,
			"estimator": map[string]any{
				"estimates":      snap.estimator.Estimates,
				"observations":   snap.estimator.Observations,
				"learned_shapes": snap.estimator.LearnedShapes,
			},
		}
	}
	writeJSON(w, http.StatusOK, payload)
}

// classStatsJSON renders one admission class for /stats.
func classStatsJSON(cs admission.ClassStats) map[string]any {
	return map[string]any{
		"running":      cs.Running,
		"queued":       cs.Queued,
		"peak_queued":  cs.PeakQueued,
		"admitted":     cs.Admitted,
		"shed_full":    cs.ShedFull,
		"shed_expired": cs.ShedExpired,
		"shed_budget":  cs.ShedBudget,
		"shed":         cs.Shed(),
		"avg_wait_ms":  cs.AvgWaitMS,
	}
}

// workersJSON renders the per-worker aggregates for /stats.
func workersJSON(agg []ctpquery.WorkerSearchStats) []map[string]any {
	out := make([]map[string]any, len(agg))
	for i, w := range agg {
		out[i] = map[string]any{
			"ops":     w.Ops,
			"kept":    w.Kept,
			"shipped": w.Shipped,
			"stolen":  w.Stolen,
			"busy_ms": float64(w.BusyNS) / 1e6,
		}
	}
	return out
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.failures.Add(1)
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
