package benchmarks

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"ctpquery"
)

// Metric is one reported number. N is the sample count behind a timing.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Result is what one run of one workload reports.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"` // the first few failures, for diagnosis
	Metrics   map[string]Metric `json:"metrics"`
	// Classes breaks the timed reads down by query class (count and
	// median latency): not a gated metric, but what one looks at first
	// when a workload's numbers move.
	Classes map[string]ClassStat `json:"classes,omitempty"`
}

// ClassStat summarizes one query class of a run.
type ClassStat struct {
	N     int     `json:"n"`
	P50MS float64 `json:"p50_ms"`
}

// classes groups latencies by query class.
type classes map[string]*Samples

func (c classes) add(class string, d time.Duration) {
	s := c[class]
	if s == nil {
		s = &Samples{}
		c[class] = s
	}
	s.Add(d)
}

func (c classes) report(res *Result) {
	res.Classes = map[string]ClassStat{}
	for name, s := range c {
		res.Classes[name] = ClassStat{N: s.N(), P50MS: s.Median()}
	}
}

// Correct reports whether every attempted operation succeeded.
func (r *Result) Correct() bool { return r.Attempted > 0 && r.Failed == 0 }

func (r *Result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, N: n}
}

// setFailedShare reports failed over attempted operations.
func (r *Result) setFailedShare() {
	if r.Attempted > 0 {
		r.set("failed_share", float64(r.Failed)/float64(r.Attempted), "ratio", r.Attempted)
	}
}

// fail counts one failed operation and keeps the first few messages.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// RunOptions are the knobs of one measuring run.
type RunOptions struct {
	Seconds float64
	// Traced selects the traced run: spans recorded and per-layer metrics
	// reported instead of end-to-end ones.
	Traced bool
	// TraceOut is where the traced run writes its spans (JSONL).
	TraceOut string
	// Smoke is for a one-second run of each workload that checks the
	// oracle quickly: it sets up once instead of several times, and a
	// window too short for a p99 (under 1,000 timed reads) leaves that
	// metric out, where a measuring run fails.
	Smoke bool
}

// Set-up repeats SetupReps times, but past minSetupReps only while all of
// them together have taken less than setupBudget: on a machine that is
// several times slower than the calibration machine the repetitions must
// not eat the run's time.
const (
	minSetupReps = 3
	setupBudget  = 4 * time.Second
)

// need is how many timed reads the run must collect: enough for a p99,
// except in a smoke run.
func (o RunOptions) need() int {
	if o.Smoke {
		return 0
	}
	return minReads
}

// Run measures plan's workload in this process. It is meant to run in a
// fresh child process, so that peak_rss_mb is the program's memory and
// not the input generator's.
func Run(plan *Plan, opts RunOptions) (*Result, error) {
	spec, err := SpecOf(plan.Workload)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Workload: plan.Workload, Seed: plan.Seed, Seconds: opts.Seconds, Traced: opts.Traced,
		Metrics: map[string]Metric{},
	}
	if opts.Traced {
		return res, runTraced(plan, spec, opts, res)
	}

	// Set-up, repeated: open the snapshot(s), Open / serve.New, warm up
	// with a fixed number of operations — what a restarting server pays
	// before it is at speed. The last instance goes on to be measured.
	var setups []float64
	var env environment
	reps := spec.SetupReps
	if opts.Smoke {
		reps = 1
	}
	setupStart := time.Now()
	for rep := 0; rep < reps && (rep < minSetupReps || time.Since(setupStart) < setupBudget); rep++ {
		if env != nil {
			env.close()
			env = nil
			debug.FreeOSMemory() // the previous instance must not count towards peak RSS
		}
		start := time.Now()
		env, err = newEnvironment(plan, spec)
		if err != nil {
			return nil, err
		}
		env.warmup(res)
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()
	res.set("setup_s", Median(setups), "s", len(setups))
	if res.Failed > 0 {
		res.setFailedShare()
		return res, nil // a failing warm-up already decides the run
	}

	if err := env.measure(opts, res); err != nil {
		return nil, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", rss, "MB", 0)
	res.setFailedShare()
	return res, nil
}

// environment is one set-up instance of a workload.
type environment interface {
	// warmup runs the spec's fixed warm-up operations, checking answers.
	warmup(res *Result)
	// measure runs the timed window and reports end-to-end metrics.
	measure(opts RunOptions, res *Result) error
	close()
}

func newEnvironment(plan *Plan, spec Spec) (environment, error) {
	if spec.RateRPS > 0 {
		return newHTTPEnv(plan, spec, nil)
	}
	return newFacadeEnv(plan, spec)
}

// minReads is the least number of timed operations a p99 is taken from
// (ten samples beyond it). A run that does not have them fails: its tail
// would be one or two outliers. A smoke run, which checks answers and not
// tails, leaves the metric out instead.
const minReads = 1000

// reportLatency sets latency_p50_ms and latency_p99_ms of a closed loop
// to the median and the p99 of all its reads. A closed loop needs no
// batch p99: a stall delays the one read in flight, not a queue of later
// ones.
func reportLatency(res *Result, lat *Samples, smoke bool) error {
	res.set("latency_p50_ms", lat.Median(), "ms", lat.N())
	p99, err := lat.P(99)
	if err != nil {
		if smoke {
			return nil
		}
		return fmt.Errorf("%s: latency_p99_ms: %w", res.Workload, err)
	}
	res.set("latency_p99_ms", p99, "ms", lat.N())
	return nil
}

// reportBatchP99 sets name, a tail timed from due times on a fixed
// schedule, to s's batch p99 over batches of minReads samples (see
// Samples.BatchP99).
func reportBatchP99(res *Result, name string, s *Samples, smoke bool) error {
	p99, batches, err := s.BatchP99(minReads)
	if err != nil {
		if smoke {
			return nil
		}
		return fmt.Errorf("%s: %s: %w", res.Workload, name, err)
	}
	res.set(name, p99, "ms", batches*minReads)
	return nil
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// ---------------------------------------------------------------------------
// Facade workloads: fig11-grid, kg-explore, live-mixed.

type facadeEnv struct {
	plan   *Plan
	spec   Spec
	dbs    map[string]*ctpquery.DB
	parsed []*ctpquery.Query
	live   *ctpquery.Graph // live-mixed only
	next   int             // position in plan.Ops
}

func newFacadeEnv(plan *Plan, spec Spec) (*facadeEnv, error) {
	e := &facadeEnv{plan: plan, spec: spec, dbs: map[string]*ctpquery.DB{}}
	for _, gf := range plan.Graphs {
		g, err := ctpquery.OpenGraph(gf.Path)
		if err != nil {
			return nil, err
		}
		if fp := strconv.FormatUint(g.Fingerprint(), 16); fp != gf.Fingerprint {
			return nil, fmt.Errorf("graph %s: fingerprint %s, plan says %s", gf.Name, fp, gf.Fingerprint)
		}
		var qopts []ctpquery.QueryOption
		switch plan.Workload {
		case KGExplore:
			qopts = append(qopts, ctpquery.WithParallelism(2))
		case LiveMixed:
			g = g.Live()
			e.live = g
		}
		db, err := ctpquery.Open(g, nil, qopts...)
		if err != nil {
			return nil, err
		}
		e.dbs[gf.Name] = db
	}
	e.parsed = make([]*ctpquery.Query, len(plan.Queries))
	for i := range plan.Queries {
		q, err := ctpquery.ParseQuery(plan.Queries[i].Text)
		if err != nil {
			return nil, err
		}
		e.parsed[i] = q
	}
	return e, nil
}

func (e *facadeEnv) close() {
	if e.live != nil {
		e.live.Quiesce()
	}
}

// read runs and checks the next operation, returning its query and
// latency.
func (e *facadeEnv) read(res *Result) (q *Query, lat time.Duration) {
	qi := e.plan.Ops[e.next%len(e.plan.Ops)]
	e.next++
	q = &e.plan.Queries[qi]
	start := time.Now()
	out, err := e.dbs[q.Graph].Run(context.Background(), e.parsed[qi])
	lat = time.Since(start)
	res.Attempted++
	if err != nil {
		res.fail("%s: %v", q.Text, err)
	} else if err := e.plan.CheckResults(q, out); err != nil {
		res.fail("%s: %v", q.Text, err)
	}
	return q, lat
}

func (e *facadeEnv) warmup(res *Result) {
	for i := 0; i < e.spec.WarmupOps; i++ {
		e.read(res)
	}
}

func (e *facadeEnv) measure(opts RunOptions, res *Result) error {
	if e.live != nil {
		_, err := e.runLive(opts, res)
		return err
	}
	lat, correct, took := e.readLoop(time.Duration(opts.Seconds*float64(time.Second)), opts.need(), res)
	return reportReads(res, lat, correct, took, opts.Smoke)
}

// readLoop is the closed loop: one caller, next read as soon as the
// previous one is checked, for the given time — and on until need reads
// are done, should a machine several times slower than the calibration
// machine not get through them in the window (up to three windows; then
// the run fails for want of a p99). It returns the latencies, how many of
// the reads were correct, and how long it ran.
func (e *facadeEnv) readLoop(window time.Duration, need int, res *Result) (lat *Samples, correct int, took time.Duration) {
	lat = &Samples{}
	byClass := classes{}
	failedBefore := res.Failed
	start := time.Now()
	for time.Since(start) < window || (lat.N() < need && time.Since(start) < 3*window) {
		q, l := e.read(res)
		lat.Add(l)
		byClass.add(q.Class, l)
	}
	took = time.Since(start)
	byClass.report(res)
	return lat, lat.N() - (res.Failed - failedBefore), took
}

// reportReads sets the read metrics of a closed loop: throughput_qps is
// the correct reads completed per second, latency_p50_ms and
// latency_p99_ms the median and the p99 of all reads.
func reportReads(res *Result, lat *Samples, correct int, took time.Duration, smoke bool) error {
	res.set("throughput_qps", float64(correct)/took.Seconds(), "1/s", correct)
	return reportLatency(res, lat, smoke)
}
