package benchmarks

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/serve"
)

// queryResp is the part of a /query response the harness reads.
type queryResp struct {
	RowCount      int      `json:"row_count"`
	RowKeys       []string `json:"row_keys"`
	RowsTruncated bool     `json:"rows_truncated"`
	TimedOut      bool     `json:"timed_out"`
	TimingsMS     struct {
		BGP   float64 `json:"bgp"`
		CTP   float64 `json:"ctp"`
		Join  float64 `json:"join"`
		Total float64 `json:"total"`
	} `json:"timings_ms"`
	Cache *struct {
		Hit       bool `json:"hit"`
		Coalesced bool `json:"coalesced"`
	} `json:"cache"`
	Admission *struct {
		Class          string  `json:"class"`
		EstimatedUnits float64 `json:"estimated_units"`
		ActualUnits    float64 `json:"actual_units"`
		QueueWaitMS    float64 `json:"queue_wait_ms"`
		CacheBypass    bool    `json:"cache_bypass"`
	} `json:"admission"`
}

// opHeader carries the operation number to the traced run's middleware.
const opHeader = "X-Ctpmark-Op"

// serverOptions are ctpserve's shipped defaults (its flag defaults), plus
// the cache budget and the two-slot admission sizing the workloads fix:
// the machine has two cores.
func serverOptions(cacheBytes int64) *ctpquery.Options {
	return &ctpquery.Options{
		Parallel: true, TrackAllocs: true,
		Cache: &ctpquery.CacheConfig{MaxBytes: cacheBytes},
	}
}

func serverConfig(traceOff bool) serve.Config {
	return serve.Config{
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     time.Minute,
		MaxRows:        1000,
		MaxParallelism: 16,
		TraceOff:       traceOff,
		Admission: &admission.Config{
			MaxConcurrent: 2, CheapReserve: 1, QueueDepth: 64, MaxQueueWait: 2 * time.Second,
		},
		Estimator: admission.EstimatorConfig{CheapThreshold: 50 * admission.UnitsPerMS},
	}
}

// httpEnv is a loopback server built from serve.New(...).Handler and a
// client limited to two connections.
type httpEnv struct {
	plan   *Plan
	spec   Spec
	db     *ctpquery.DB
	srv    *http.Server
	client *http.Client
	url    string
	served chan error
	tr     *tracing
	next   int // position in plan.Ops; also the per-use rename counter
}

func newHTTPEnv(plan *Plan, spec Spec, tr *tracing) (*httpEnv, error) {
	gf := plan.Graph("kg-small")
	if gf == nil {
		return nil, fmt.Errorf("plan has no kg-small graph")
	}
	g, err := ctpquery.OpenGraph(gf.Path)
	if err != nil {
		return nil, err
	}
	if fp := strconv.FormatUint(g.Fingerprint(), 16); fp != gf.Fingerprint {
		return nil, fmt.Errorf("graph %s: fingerprint %s, plan says %s", gf.Name, fp, gf.Fingerprint)
	}
	db, err := ctpquery.Open(g, serverOptions(spec.CacheBytes))
	if err != nil {
		return nil, err
	}
	s, err := serve.New(db, serverConfig(false))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	handler := s.Handler(false)
	if tr != nil {
		handler = tr.middleware(handler)
	}
	e := &httpEnv{
		plan: plan, spec: spec, db: db, tr: tr,
		srv:    &http.Server{Handler: handler},
		url:    "http://" + ln.Addr().String() + "/query",
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
		}},
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

func (e *httpEnv) close() {
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // best effort: the process is about to drop the server anyway
	<-e.served
}

// body renders the request of the use-th use of query qi.
func (e *httpEnv) body(qi int32, use int) []byte {
	b, err := json.Marshal(struct {
		Query       string `json:"query"`
		IncludeKeys bool   `json:"include_keys"`
	}{e.plan.Queries[qi].TextFor(use), true})
	if err != nil {
		panic(err) // a string and a bool always marshal
	}
	return b
}

// post sends one request and reads the whole response.
func (e *httpEnv) post(op int, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, e.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if e.tr != nil {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// verify checks one response against the oracle: HTTP 200, complete, and
// the expected rows. A shed (429), a draining 503, a timed-out or
// truncated answer and a wrong answer are all failed operations.
func verify(q *Query, status int, body []byte, err error) (*queryResp, error) {
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %.120s", status, body)
	}
	var r queryResp
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	if r.TimedOut || r.RowsTruncated {
		return &r, fmt.Errorf("partial answer (timed_out=%t rows_truncated=%t)", r.TimedOut, r.RowsTruncated)
	}
	return &r, q.Check(r.RowCount, r.RowKeys)
}

func (e *httpEnv) warmup(res *Result) {
	for i := 0; i < e.spec.WarmupOps; i++ {
		qi := e.plan.Ops[e.next]
		status, body, err := e.post(-1, e.body(qi, e.next))
		e.next++
		res.Attempted++
		if _, err := verify(&e.plan.Queries[qi], status, body, err); err != nil {
			res.fail("%s: %v", e.plan.Queries[qi].Text, err)
		}
	}
}

// response is one completed request, handed to the verifier.
type response struct {
	op     int
	status int
	body   []byte
	err    error
}

// openLoopRun is everything one open-loop window produced.
type openLoopRun struct {
	OpenLoopResult
	qi    []int32      // query index per op
	resps []*queryResp // decoded response per op (nil when undecodable)
	ok    []bool
	bytes []int // response body size per op
}

// openLoop drives n requests at the spec's fixed rate over two
// connections, checking every answer on a separate goroutine so a
// connection is free again the moment its response is read.
func (e *httpEnv) openLoop(n int, res *Result) (*openLoopRun, error) {
	if e.next+n > len(e.plan.Ops) {
		return nil, fmt.Errorf("plan holds %d ops, window needs %d", len(e.plan.Ops), e.next+n)
	}
	run := &openLoopRun{qi: make([]int32, n), resps: make([]*queryResp, n), ok: make([]bool, n), bytes: make([]int, n)}
	bodies := make([][]byte, n)
	for i := range bodies {
		run.qi[i] = e.plan.Ops[e.next+i]
		bodies[i] = e.body(run.qi[i], e.next+i)
	}
	e.next += n
	// Buffer n: handing a response over never blocks a connection.
	done := make(chan response, n)
	verified := make(chan struct{})
	var failures []string
	go func() {
		defer close(verified)
		for r := range done {
			q := &e.plan.Queries[run.qi[r.op]]
			qr, err := verify(q, r.status, r.body, r.err)
			run.resps[r.op] = qr
			run.ok[r.op] = err == nil
			run.bytes[r.op] = len(r.body)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", q.Text, err))
			}
		}
	}()
	run.OpenLoopResult = OpenLoop(n, e.spec.RateRPS, 2, func(i int) {
		status, body, err := e.post(i, bodies[i])
		done <- response{op: i, status: status, body: body, err: err}
	})
	close(done)
	<-verified
	res.Attempted += n
	for _, f := range failures {
		res.fail("%s", f)
	}
	return run, nil
}

// OpenShare is the share of an HTTP workload's timed window spent in the
// open-loop phase; the rest is the closed-loop phase.
const OpenShare = 0.65

// closedOp is one request of the closed-loop phase. Times are offsets
// from the phase's start.
type closedOp struct {
	qi         int32
	sent, done time.Duration
	err        error
}

// closedLoop is the capacity phase: the spec's callers, each sending its
// next request the moment the previous answer is read and checked, for the
// given time — and on until need requests are answered, should a machine
// several times slower than the calibration machine not get through them
// in the window (up to three windows). It returns every request and how
// long the phase took.
func (e *httpEnv) closedLoop(window time.Duration, need int, res *Result) ([]closedOp, time.Duration) {
	var next, answered atomic.Int64
	next.Store(int64(e.next))
	callers := make([][]closedOp, e.spec.Callers)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func(ops *[]closedOp) {
			defer wg.Done()
			for time.Since(start) < window || (answered.Load() < int64(need) && time.Since(start) < 3*window) {
				// Operations wrap around the plan; the use counter keeps
				// growing, so renamed queries stay distinct.
				use := int(next.Add(1) - 1)
				qi := e.plan.Ops[use%len(e.plan.Ops)]
				body := e.body(qi, use)
				sent := time.Since(start)
				status, data, err := e.post(-1, body)
				done := time.Since(start)
				_, err = verify(&e.plan.Queries[qi], status, data, err)
				*ops = append(*ops, closedOp{qi: qi, sent: sent, done: done, err: err})
				answered.Add(1)
			}
		}(&callers[c])
	}
	wg.Wait()
	phase := time.Since(start)
	e.next = int(next.Load())
	var all []closedOp
	for _, ops := range callers {
		all = append(all, ops...)
		res.Attempted += len(ops)
		for _, op := range ops {
			if op.err != nil {
				res.fail("%s: %v", e.plan.Queries[op.qi].Text, op.err)
			}
		}
	}
	return all, phase
}

// measure is the timed window of an HTTP workload, in two phases.
//
// Open loop, OpenShare of the window: requests released at the fixed rate
// whatever the server does, timed from their due times. This is what
// independent users see. A stall here delays every request that was due
// while it lasted, so the tails are batch p99s (Samples.BatchP99) over
// consecutive batches of 1,000 requests — a whole number of the plan's
// 10-op patterns, so every batch has the same class mix:
// latency_open_p99_ms over all requests, cheap_p99_ms over serve-mixed's
// interactive class; latency_open_p50_ms is the median.
//
// Closed loop, the rest: the spec's callers back to back. The three read
// metrics every workload reports come from here: throughput_qps is the
// correct answers per second and latency_p50_ms and latency_p99_ms are
// the callers' median and p99 request latency, send → response read. An open loop far below
// capacity cannot supply them: its throughput is its rate, and its
// latencies mostly measure how fast idle cores wake up, which on the
// calibration machine moved by half between identical runs.
func (e *httpEnv) measure(opts RunOptions, res *Result) error {
	n := int(e.spec.RateRPS * opts.Seconds * OpenShare)
	run, err := e.openLoop(n, res)
	if err != nil {
		return err
	}
	open, cheap := &Samples{}, &Samples{}
	inLimit := 0
	limit := time.Duration(e.spec.LimitMS * float64(time.Millisecond))
	for i, d := range run.Latency {
		open.Add(d)
		if run.ok[i] && d <= limit {
			inLimit++
		}
		if e.plan.Queries[run.qi[i]].Class == "cheap" {
			cheap.Add(d)
		}
	}
	res.set("latency_open_p50_ms", open.Median(), "ms", open.N())
	res.set("goodput_share", float64(inLimit)/float64(n), "ratio", n)
	if err := reportBatchP99(res, "latency_open_p99_ms", open, opts.Smoke); err != nil {
		return err
	}
	if e.plan.Workload == ServeMixed {
		if err := reportBatchP99(res, "cheap_p99_ms", cheap, opts.Smoke); err != nil {
			return err
		}
	}
	lag := &Samples{}
	for _, d := range run.Lag {
		lag.Add(d)
	}
	if p99, err := lag.P(99); err == nil {
		res.set("generator_lag_p99_ms", p99, "ms", lag.N())
		if p99 > 5 {
			fmt.Fprintf(os.Stderr, "ctpmark: %s: generator lag p99 %.2f ms exceeds 5 ms; open-loop latencies include harness delay\n", res.Workload, p99)
		}
	}

	window := time.Duration(opts.Seconds * (1 - OpenShare) * float64(time.Second))
	ops, phase := e.closedLoop(window, opts.need(), res)
	lat, byClass := &Samples{}, classes{}
	ok := 0
	for _, op := range ops {
		lat.Add(op.done - op.sent)
		byClass.add(e.plan.Queries[op.qi].Class, op.done-op.sent)
		if op.err == nil {
			ok++
		}
	}
	byClass.report(res)
	res.set("throughput_qps", float64(ok)/phase.Seconds(), "1/s", ok)
	return reportLatency(res, lat, opts.Smoke)
}
