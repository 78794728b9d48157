package benchmarks

import (
	"context"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"ctpquery"
	"ctpquery/internal/core"
	"ctpquery/internal/engine"
	"ctpquery/internal/eql"
	"ctpquery/internal/graph"
)

// The traced run. It replays the workload's operation sequence at half
// duration with a span around every call into a layer, runs the layer
// probes of layers.go on the workload's own inputs, writes the spans out
// when it ends, and reports the per-layer metrics. Nothing inside the
// program is instrumented: every span is recorded here, around a public
// function, or synthesized from timings that function returned.

// tracing is the state of one traced run.
type tracing struct {
	rec   *Recorder
	epoch time.Time

	mu      sync.Mutex
	handler map[int][2]int64 // op → serve.handler start, end (ns since epoch)
}

func newTracing() *tracing {
	return &tracing{rec: &Recorder{}, epoch: time.Now(), handler: map[int][2]int64{}}
}

func (t *tracing) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// middleware times Handler.ServeHTTP per operation (the request names its
// operation in opHeader; warm-up requests send -1 and are not recorded).
func (t *tracing) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.Atoi(r.Header.Get(opHeader))
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		if err == nil && op >= 0 {
			t.mu.Lock()
			t.handler[op] = [2]int64{t.ns(start), t.ns(end)}
			t.mu.Unlock()
		}
	})
}

// layerRun carries what the probes and the traced replay share.
type layerRun struct {
	plan   *Plan
	spec   Spec
	res    *Result
	tr     *tracing
	window time.Duration
	graphs map[string]*graph.Graph // the plan's graphs, through internal/graph
	parsed []*eql.Query            // the plan's queries, parsed
}

func (l *layerRun) set(name string, v float64) { l.res.set(name, v, unitOf(name), 0) }

// mainGraph is the graph most of the workload's queries run on.
func (l *layerRun) mainGraph() (*GraphFile, *graph.Graph) {
	gf := &l.plan.Graphs[len(l.plan.Graphs)-1]
	return gf, l.graphs[gf.Name]
}

func runTraced(plan *Plan, spec Spec, opts RunOptions, res *Result) error {
	l := &layerRun{
		plan: plan, spec: spec, res: res, tr: newTracing(),
		window: time.Duration(opts.Seconds / 2 * float64(time.Second)),
		graphs: map[string]*graph.Graph{},
	}
	for _, d := range PerLayer {
		res.set(d.Name, 0, d.Unit, 0)
	}
	for _, gf := range plan.Graphs {
		f, err := os.Open(gf.Path)
		if err != nil {
			return err
		}
		g, err := graph.ReadSnapshot(f)
		f.Close()
		if err != nil {
			return err
		}
		l.graphs[gf.Name] = g
	}
	nonEmpty := 0
	for i := range plan.Queries {
		q, err := eql.Parse(plan.Queries[i].Text)
		if err != nil {
			return err
		}
		l.parsed = append(l.parsed, q)
		if plan.Queries[i].Rows > 0 {
			nonEmpty++
		}
	}
	l.set("trace.rows_nonempty_share", float64(nonEmpty)/float64(len(plan.Queries)))

	if err := l.graphLayer(); err != nil {
		return err
	}
	l.parseLayer()
	if err := l.coreLayer(); err != nil {
		return err
	}
	if err := l.bgpStorageLayer(); err != nil {
		return err
	}
	var err error
	if spec.RateRPS > 0 {
		err = l.tracedHTTP(opts)
	} else {
		err = l.tracedFacade(opts)
	}
	if err != nil {
		return err
	}
	spans := l.tr.rec.Spans()
	self := SelfTimes(spans)
	var opTotal int64
	for _, s := range spans {
		if s.Parent == 0 {
			opTotal += s.EndNS - s.StartNS
		}
	}
	if opTotal > 0 {
		l.set("trace.core_share", float64(self["ctp"])/float64(opTotal))
		l.set("trace.bgp_storage_share", float64(self["bgp"]+self["join"])/float64(opTotal))
	}
	if opts.TraceOut != "" {
		if err := l.tr.rec.WriteJSONL(opts.TraceOut); err != nil {
			return err
		}
	}
	res.setFailedShare()
	return nil
}

// ---------------------------------------------------------------------------
// Facade workloads, stage by stage: eql.Parse → engine.ExecuteContext,
// with the engine's children synthesized from the phase timings it
// returns.

// stagedOp is one replayed operation.
type stagedOp struct {
	parse, exec    time.Duration
	bgp, ctp, join time.Duration
}

func (l *layerRun) engines() map[string]*engine.Engine {
	opts := engine.Options{Algorithm: core.MoLESP}
	if l.plan.Workload == KGExplore {
		opts.Parallelism = 2
	}
	out := map[string]*engine.Engine{}
	for name, g := range l.graphs {
		out[name] = engine.New(g, opts)
	}
	return out
}

// stage runs one operation stage by stage; when traced it records the
// operation's spans.
func (l *layerRun) stage(engines map[string]*engine.Engine, op int, qi int32, traced bool) (stagedOp, error) {
	q := &l.plan.Queries[qi]
	t0 := time.Now()
	parsed, err := eql.Parse(q.Text)
	t1 := time.Now()
	if err != nil {
		return stagedOp{}, err
	}
	out, err := engines[q.Graph].ExecuteContext(context.Background(), parsed)
	t2 := time.Now()
	if err != nil {
		return stagedOp{}, err
	}
	l.res.Attempted++
	if out.TimedOut() {
		l.res.fail("%s: timed out", q.Text)
	} else if rows := out.Table.NumRows(); rows != q.Rows {
		// The staged replay has no facade Results to take row keys from;
		// the facade pass of runOverhead checks every query's full digest.
		l.res.fail("%s: %d rows, want %d", q.Text, rows, q.Rows)
	}
	s := stagedOp{parse: t1.Sub(t0), exec: t2.Sub(t1), bgp: out.BGPTime, ctp: out.CTPTime, join: out.JoinTime}
	if traced {
		rec, ns := l.tr.rec, l.tr.ns
		root := rec.Add(op, 0, "op", ns(t0), ns(t2))
		rec.Add(op, root, "eql.parse", ns(t0), ns(t1))
		ex := rec.Add(op, root, "engine.execute", ns(t1), ns(t2))
		s.addPhases(rec, op, ex, ns(t1))
	}
	return s, nil
}

// addPhases records the engine's bgp, ctp and join phases as consecutive
// children of parent starting at at, and returns where they end.
func (s stagedOp) addPhases(rec *Recorder, op, parent int, at int64) int64 {
	for _, ph := range []struct {
		name string
		d    time.Duration
	}{{"bgp", s.bgp}, {"ctp", s.ctp}, {"join", s.join}} {
		if ph.d > 0 {
			rec.Add(op, parent, ph.name, at, at+int64(ph.d))
			at += int64(ph.d)
		}
	}
	return at
}

func (l *layerRun) tracedFacade(opts RunOptions) error {
	window := l.window
	if l.plan.Workload == LiveMixed {
		// The live window itself (reads beside the writer, then the bulk
		// phase) is not staged: its point is the store's behaviour under
		// writes, which the facade shows through StoreStats and the
		// compaction observer. It runs at full length — compactions are
		// counted per window — and the staged replay follows at a quarter.
		if err := l.liveLayer(opts); err != nil {
			return err
		}
		window /= 2
	}
	engines := l.engines()
	ops := l.plan.Ops
	// Alternate untraced and traced passes over the same block of
	// operations: the difference of their totals is the tracing overhead,
	// free of drift between two separate windows.
	const block = 16
	var plain, traced time.Duration
	var staged []stagedOp
	start := time.Now()
	for b := 0; time.Since(start) < window; b++ {
		for pass := 0; pass < 2; pass++ {
			withSpans := (pass == 0) == (b%2 == 0) // swap which pass goes first each block
			for i := 0; i < block; i++ {
				op := b*block + i
				s, err := l.stage(engines, op, ops[(l.spec.WarmupOps+op)%len(ops)], withSpans)
				if err != nil {
					return err
				}
				if withSpans {
					traced += s.parse + s.exec
					staged = append(staged, s)
				} else {
					plain += s.parse + s.exec
				}
			}
		}
	}
	if plain > 0 {
		l.set("trace.overhead_pct", 100*float64(traced-plain)/float64(plain))
	}
	l.engineMetrics(staged)
	return l.runOverhead()
}

// engineMetrics reports engine.* and storage.join_ms from staged (or, for
// HTTP workloads, response-derived) operations.
func (l *layerRun) engineMetrics(staged []stagedOp) {
	if len(staged) == 0 {
		return
	}
	var exec, self, join []float64
	var sumExec, sumBGP, sumCTP, sumJoin time.Duration
	for _, s := range staged {
		exec = append(exec, msOf(s.exec))
		self = append(self, msOf(s.exec-s.bgp-s.ctp-s.join))
		join = append(join, msOf(s.join))
		sumExec += s.exec
		sumBGP += s.bgp
		sumCTP += s.ctp
		sumJoin += s.join
	}
	l.set("engine.execute_ms", Median(exec))
	l.set("engine.self_ms", Median(self))
	l.set("storage.join_ms", Median(join))
	if sumExec > 0 {
		l.set("engine.bgp_share", float64(sumBGP)/float64(sumExec))
		l.set("engine.ctp_share", float64(sumCTP)/float64(sumExec))
		l.set("engine.join_share", float64(sumJoin)/float64(sumExec))
	}
}

// runOverhead measures ctpquery.run_overhead_us — what DB.Run adds over
// engine.ExecuteContext on the same parsed query (epoch pinning, options,
// Results construction) — pairing the two calls per query and swapping
// their order. The facade pass also checks every query's full digest.
func (l *layerRun) runOverhead() error {
	engines := l.engines()
	dbs := map[string]*ctpquery.DB{}
	for _, gf := range l.plan.Graphs {
		g, err := ctpquery.OpenGraph(gf.Path)
		if err != nil {
			return err
		}
		var qopts []ctpquery.QueryOption
		if l.plan.Workload == KGExplore {
			qopts = append(qopts, ctpquery.WithParallelism(2))
		}
		if dbs[gf.Name], err = ctpquery.Open(g, nil, qopts...); err != nil {
			return err
		}
	}
	ctx := context.Background()
	var diffs []float64
	budget := time.Now().Add(1500 * time.Millisecond)
	for qi := range l.plan.Queries {
		if time.Now().After(budget) {
			break
		}
		q := &l.plan.Queries[qi]
		fq, err := ctpquery.ParseQuery(q.Text)
		if err != nil {
			return err
		}
		var run, exec []float64
		for rep := 0; rep < 4; rep++ {
			for pass := 0; pass < 2; pass++ {
				if (pass == 0) == (rep%2 == 0) {
					t := time.Now()
					out, err := dbs[q.Graph].Run(ctx, fq)
					run = append(run, float64(time.Since(t))/float64(time.Microsecond))
					if err != nil {
						return err
					}
					if rep == 0 {
						l.res.Attempted++
						if err := l.plan.CheckResults(q, out); err != nil {
							l.res.fail("%s: %v", q.Text, err)
						}
					}
				} else {
					t := time.Now()
					if _, err := engines[q.Graph].ExecuteContext(ctx, l.parsed[qi]); err != nil {
						return err
					}
					exec = append(exec, float64(time.Since(t))/float64(time.Microsecond))
				}
			}
		}
		diffs = append(diffs, Median(run)-Median(exec))
	}
	l.set("ctpquery.run_overhead_us", Median(diffs))
	return nil
}

// liveLayer runs live-mixed's window through the facade
// and reports the graph.* metrics of the live store, then measures what
// a partly filled delta costs a reader.
func (l *layerRun) liveLayer(opts RunOptions) error {
	env, err := newFacadeEnv(l.plan, l.spec)
	if err != nil {
		return err
	}
	defer env.close()
	env.warmup(l.res)
	scratch := &Result{Metrics: map[string]Metric{}}
	st, err := env.runLive(opts, scratch)
	if err != nil {
		return err
	}
	l.res.Attempted += scratch.Attempted
	l.res.Failed += scratch.Failed
	l.res.Errors = append(l.res.Errors, scratch.Errors...)
	l.set("graph.compactions", float64(st.compactions))
	l.set("graph.compact_ms", st.compactMS)
	l.set("graph.delta_edges_peak", float64(st.deltaEdgesPeak))
	l.set("graph.mutate_us_per_op", st.mutateUSPerOp)
	l.set("write_p99_ms", scratch.Metrics["write_p99_ms"].Value)
	l.set("ingest_ops_per_s", scratch.Metrics["ingest_ops_per_s"].Value)

	// Overlay read cost: the same reads on a store whose delta is 20% of
	// the compaction threshold full, and again right after CompactNow.
	gf, _ := l.mainGraph()
	base, err := ctpquery.OpenGraph(gf.Path)
	if err != nil {
		return err
	}
	lg := base.LiveWithConfig(ctpquery.LiveConfig{CompactThreshold: -1})
	batches, err := readMutations(l.plan.Mutations)
	if err != nil {
		return err
	}
	const fill = CompactThreshold / 5
	for ops, i := 0, 0; ops < fill && i < len(batches); i++ {
		if _, err := lg.Mutate(batches[i]); err != nil {
			return err
		}
		ops += batchOps(batches[i])
	}
	db, err := ctpquery.Open(lg, nil)
	if err != nil {
		return err
	}
	readAll := func() (time.Duration, error) {
		var best time.Duration
		for rep := 0; rep < 3; rep++ {
			var total time.Duration
			for qi := range l.plan.Queries {
				fq, err := ctpquery.ParseQuery(l.plan.Queries[qi].Text)
				if err != nil {
					return 0, err
				}
				t := time.Now()
				if _, err := db.Run(context.Background(), fq); err != nil {
					return 0, err
				}
				total += time.Since(t)
			}
			if rep == 0 || total < best {
				best = total
			}
		}
		return best, nil
	}
	filled, err := readAll()
	if err != nil {
		return err
	}
	if err := lg.CompactNow(); err != nil {
		return err
	}
	compacted, err := readAll()
	if err != nil {
		return err
	}
	if compacted > 0 {
		l.set("graph.overlay_read_ratio", float64(filled)/float64(compacted))
	}
	return nil
}

// ---------------------------------------------------------------------------
// HTTP workloads: client.wait (due → picked up by a connection), http
// (request sent → response read) and serve.handler (the middleware), the
// handler split by the response's admission, cache and timings fields.

func (l *layerRun) tracedHTTP(opts RunOptions) error {
	// Two servers, one behind the span middleware, both warmed; the window
	// is split plain, traced, traced, plain so that drift cancels, and the
	// difference of the two median latencies is the tracing overhead.
	plainEnv, err := newHTTPEnv(l.plan, l.spec, nil)
	if err != nil {
		return err
	}
	defer plainEnv.close()
	env, err := newHTTPEnv(l.plan, l.spec, l.tr)
	if err != nil {
		return err
	}
	defer env.close()
	scratch := &Result{Metrics: map[string]Metric{}}
	plainEnv.warmup(scratch)
	env.warmup(l.res)
	n := int(l.spec.RateRPS * opts.Seconds / 2)
	before, _ := env.db.CacheStats()
	plain := &openLoopRun{}
	var run *openLoopRun
	for _, traced := range []bool{false, true, false} {
		if !traced {
			part, err := plainEnv.openLoop(n/2, scratch)
			if err != nil {
				return err
			}
			plain.Latency = append(plain.Latency, part.Latency...)
			plain.Lag = append(plain.Lag, part.Lag...)
			plain.resps = append(plain.resps, part.resps...)
			plain.qi = append(plain.qi, part.qi...)
			continue
		}
		if run, err = env.openLoop(n, l.res); err != nil {
			return err
		}
	}
	after, _ := env.db.CacheStats()
	l.res.Attempted += scratch.Attempted
	l.res.Failed += scratch.Failed
	l.res.Errors = append(l.res.Errors, scratch.Errors...)

	medianMS := func(ds []time.Duration) float64 {
		s := &Samples{}
		for _, d := range ds {
			s.Add(d)
		}
		return s.Median()
	}
	if p := medianMS(plain.Latency); p > 0 {
		l.set("trace.overhead_pct", 100*(medianMS(run.Latency)-p)/p)
	}
	if l.plan.Workload == ServeMixed {
		// Over both servers' windows: as many requests as a full window.
		cheap := &Samples{}
		for _, part := range []*openLoopRun{plain, run} {
			for i, d := range part.Latency {
				if l.plan.Queries[part.qi[i]].Class == "cheap" {
					cheap.Add(d)
				}
			}
		}
		if p99, _, err := cheap.BatchP99(minReads); err == nil {
			l.set("cheap_p99_ms", p99)
		}
	}
	lag := &Samples{}
	for _, d := range append(append([]time.Duration{}, plain.Lag...), run.Lag...) {
		lag.Add(d)
	}
	if p99, err := lag.P(99); err == nil {
		l.set("load.generator_lag_ms_p99", p99)
	}

	// Cache counters over the traced window.
	if looked := (after.Hits - before.Hits) + (after.Misses - before.Misses) + (after.Coalesced - before.Coalesced); looked > 0 {
		l.set("qcache.hit_share", float64(after.Hits-before.Hits)/float64(looked))
	}
	l.set("qcache.evictions", float64(after.Evictions-before.Evictions))
	l.set("qcache.coalesced", float64(after.Coalesced-before.Coalesced))

	// Spans and the response-derived layer metrics.
	var handlerUS, selfUS, httpOverUS, bytes, ratio []float64
	var staged []stagedOp
	queue := &Samples{}
	for _, r := range plain.resps {
		if r != nil && r.Admission != nil {
			queue.Add(time.Duration(r.Admission.QueueWaitMS * float64(time.Millisecond)))
		}
	}
	rec := l.tr.rec
	startNS := l.tr.ns(run.Start)
	interval := int64(float64(time.Second) / l.spec.RateRPS)
	for i := 0; i < n; i++ {
		due := startNS + int64(i)*interval
		sent, done := due+int64(run.Wait[i]), due+int64(run.Latency[i])
		root := rec.Add(i, 0, "op", due, done)
		rec.Add(i, root, "client.wait", due, sent)
		httpSpan := rec.Add(i, root, "http", sent, done)
		bytes = append(bytes, float64(run.bytes[i]))
		l.tr.mu.Lock()
		h, ok := l.tr.handler[i]
		l.tr.mu.Unlock()
		if !ok {
			continue
		}
		hs := rec.Add(i, httpSpan, "serve.handler", h[0], h[1])
		handler := h[1] - h[0]
		handlerUS = append(handlerUS, float64(handler)/1e3)
		httpOverUS = append(httpOverUS, float64((done-sent)-handler)/1e3)
		inside := int64(0)
		if r := run.resps[i]; r != nil {
			at := h[0]
			if a := r.Admission; a != nil {
				queue.Add(time.Duration(a.QueueWaitMS * float64(time.Millisecond)))
				if w := int64(a.QueueWaitMS * 1e6); w > 0 {
					rec.Add(i, hs, "admission.queue", at, at+w)
					at += w
					inside += w
				}
				if a.ActualUnits > 0 {
					ratio = append(ratio, a.EstimatedUnits/a.ActualUnits)
				}
			}
			// On a hit (or a coalesced wait) timings_ms repeats the run
			// that filled the entry; this request searched nothing.
			if r.Cache == nil || !(r.Cache.Hit || r.Cache.Coalesced) {
				s := stagedOp{
					bgp:  time.Duration(r.TimingsMS.BGP * float64(time.Millisecond)),
					ctp:  time.Duration(r.TimingsMS.CTP * float64(time.Millisecond)),
					join: time.Duration(r.TimingsMS.Join * float64(time.Millisecond)),
				}
				s.exec = s.bgp + s.ctp + s.join
				staged = append(staged, s)
				s.addPhases(rec, i, hs, at)
				inside += int64(s.exec)
			}
		}
		selfUS = append(selfUS, float64(handler-inside)/1e3)
	}
	l.set("serve.handler_us", Median(handlerUS))
	l.set("serve.self_us", Median(selfUS))
	l.set("serve.http_overhead_us", Median(httpOverUS))
	l.set("serve.response_bytes", Median(bytes))
	l.set("admission.estimate_ratio", Median(ratio))
	if p99, err := queue.P(99); err == nil {
		l.set("admission.queue_wait_ms_p99", p99)
	}
	l.engineMetrics(staged)
	// HTTP responses carry no engine total: execute is the phase sum, so
	// engine self time is not observable from outside the handler.
	l.set("engine.self_ms", 0)

	if err := l.serveProbes(env); err != nil {
		return err
	}
	return l.runOverhead()
}
