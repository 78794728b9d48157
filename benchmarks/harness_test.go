package benchmarks

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ctpquery"
)

// TestMain lets more tests run at once than there are cores: the smoke
// runs spend their time in wall-clock windows, which overlap, and none of
// the parallel tests judges a timing.
func TestMain(m *testing.M) {
	if err := flag.Set("test.parallel", "6"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// testSizes keeps kg-large small enough to generate in a test, and the
// query classes an eighth of their size.
var testSizes = Sizes{Small: 2000, Large: 6000, Shrink: 8}

func TestPercentileRefusesThinTail(t *testing.T) {
	vs := make([]float64, 999)
	for i := range vs {
		vs[i] = float64(i)
	}
	if _, err := Percentile(vs, 99); err == nil {
		t.Error("p99 of 999 samples has 9 samples beyond it and must be refused")
	}
	vs = append(vs, 999)
	got, err := Percentile(vs, 99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples has 10 beyond it: %v", err)
	}
	if got != 989 {
		t.Errorf("p99 of 0..999 = %v, want 989 (nearest rank)", got)
	}
	if _, err := Percentile(vs[:100], 50); err != nil {
		t.Errorf("p50 of 100 samples refused: %v", err)
	}
}

// TestRunRefusesThinP99: a measuring run with fewer than 1,000 timed
// reads fails rather than report a tail made of one or two outliers; a
// smoke run leaves the metric out. With enough reads an open-loop p99 is
// the median over whole batches, so one stalled batch does not decide it.
func TestRunRefusesThinP99(t *testing.T) {
	s := &Samples{}
	for i := 0; i < 999; i++ {
		s.Add(time.Millisecond)
	}
	res := &Result{Workload: Fig11Grid, Metrics: map[string]Metric{}}
	if err := reportBatchP99(res, "latency_open_p99_ms", s, false); err == nil {
		t.Error("999 timed reads: the run must fail")
	}
	if err := reportBatchP99(res, "latency_open_p99_ms", s, true); err != nil || len(res.Metrics) != 0 {
		t.Errorf("smoke run: error %v, metrics %v; want neither", err, res.Metrics)
	}
	if err := reportLatency(res, s, false); err == nil {
		t.Error("999 timed reads of a closed loop: the run must fail")
	}
	res.Metrics = map[string]Metric{}
	// Three batches of 1,000: 1 ms each, but every read of the second
	// batch stalls for 50 ms.
	s = &Samples{}
	for i := 0; i < 3000; i++ {
		d := time.Millisecond
		if i/1000 == 1 {
			d = 50 * time.Millisecond
		}
		s.Add(d)
	}
	if err := reportBatchP99(res, "latency_open_p99_ms", s, false); err != nil {
		t.Fatal(err)
	}
	if m := res.Metrics["latency_open_p99_ms"]; m.Value != 1 || m.N != 3000 {
		t.Errorf("batch p99 = %v over %d reads, want 1 ms over 3000", m.Value, m.N)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := Quartiles(vs)
	if q1 != 2.75 || q3 != 8.25 || Median(vs) != 5.5 {
		t.Errorf("quartiles %v, %v median %v; want 2.75, 8.25, 5.5", q1, q3, Median(vs))
	}
}

// TestOpenLoopChargesStallToLaterRequests: one connection, a fake server
// that stalls on one request. Timed from their due times, the requests
// that were due during the stall carry it too; timed from their send
// times they would look fast. The generator itself must stay on schedule.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n     = 60
		rate  = 1000.0 // one per millisecond
		stall = 30 * time.Millisecond
	)
	res := OpenLoop(n, rate, 1, func(i int) {
		if i == 10 {
			time.Sleep(stall)
		}
	})
	// Request 20 was due 10 ms into the stall: it waited ~20 ms for the
	// connection although its own service took no time.
	if got := res.Latency[20]; got < 15*time.Millisecond {
		t.Errorf("request 20 latency %v: the stall was not charged to it", got)
	}
	if got := res.Wait[20]; got < 15*time.Millisecond {
		t.Errorf("request 20 waited %v for the connection, want ≥ 15ms", got)
	}
	if got := res.Latency[5]; got > 10*time.Millisecond {
		t.Errorf("request 5 (before the stall) latency %v", got)
	}
	// The pacer never blocks on the busy connection, so its lag stays
	// small even for requests released during the stall.
	for _, i := range []int{15, 25, 35} {
		if res.Lag[i] > 10*time.Millisecond {
			t.Errorf("generator lag of request %d is %v: the pacer was held up by the stalled server", i, res.Lag[i])
		}
	}
	if res.Lag[20] >= res.Wait[20] {
		t.Errorf("lag %v should be far below the connection wait %v", res.Lag[20], res.Wait[20])
	}
}

func TestOpenLoopKeepsInFlightBound(t *testing.T) {
	var inFlight, peak atomic.Int32
	OpenLoop(200, 20000, 2, func(int) {
		if v := inFlight.Add(1); v > peak.Load() {
			peak.Store(v)
		}
		time.Sleep(200 * time.Microsecond)
		inFlight.Add(-1)
	})
	if peak.Load() > 2 {
		t.Errorf("%d operations in flight, want at most 2", peak.Load())
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Op: 1, ID: 1, Parent: 0, Name: "op", StartNS: 0, EndNS: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 60},
		{Op: 1, ID: 3, Parent: 1, Name: "b", StartNS: 40, EndNS: 90},  // overlaps a
		{Op: 1, ID: 4, Parent: 1, Name: "c", StartNS: 95, EndNS: 120}, // runs past the parent
		{Op: 1, ID: 5, Parent: 2, Name: "leaf", StartNS: 20, EndNS: 30},
	}
	self := SelfTimes(spans)
	// Children cover [10,90] ∪ [95,100] = 85 of the parent's 100.
	want := map[string]int64{"op": 15, "a": 40, "b": 50, "c": 25, "leaf": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(vals ...float64) []*Result {
		var out []*Result
		for _, v := range vals {
			out = append(out, &Result{Workload: Fig11Grid, Metrics: map[string]Metric{
				"latency_p50_ms": {Value: v, Unit: "ms"}, "throughput_qps": {Value: v, Unit: "1/s"},
			}})
		}
		return out
	}
	defs := []MetricDef{
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.10},
	}
	cases := []struct {
		a, b           []float64
		latency, thrpt string
	}{
		{[]float64{100, 101, 99}, []float64{100, 102, 98}, Same, Same},
		{[]float64{100, 101, 99}, []float64{120, 121, 119}, Worse, Better},
		{[]float64{100, 101, 99}, []float64{80, 81, 79}, Better, Worse},
		{[]float64{100, 140, 60}, []float64{100, 101, 99}, Unresolved, Unresolved},
	}
	for i, c := range cases {
		rows := Compare(mk(c.a...), mk(c.b...), defs)
		if len(rows) != 2 {
			t.Fatalf("case %d: %d rows", i, len(rows))
		}
		if rows[0].Verdict != c.latency || rows[1].Verdict != c.thrpt {
			t.Errorf("case %d: verdicts %s / %s, want %s / %s", i, rows[0].Verdict, rows[1].Verdict, c.latency, c.thrpt)
		}
	}
}

// planBytes renders what the program is fed — queries, operation
// sequence, graphs, mutation stream — without the directory-dependent
// paths.
func planBytes(t *testing.T, p *Plan) []byte {
	t.Helper()
	cp := *p
	cp.Graphs = nil
	for _, g := range p.Graphs {
		g.Path = ""
		cp.Graphs = append(cp.Graphs, g)
	}
	cp.Mutations = ""
	out, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mutations != "" {
		stream, err := os.ReadFile(p.Mutations)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, stream...)
	}
	return out
}

// TestInputsAndMutationStream: the inputs are a function of the seed —
// two prepares of one seed are byte-identical, another seed differs — and
// live-mixed's stream, applied batch by batch (prepare itself applies it
// in merged chunks), leaves every read with the oracle's answer at
// several epochs, through compactions.
func TestInputsAndMutationStream(t *testing.T) {
	t.Parallel()
	prep := func(w string, seed int64) *Plan {
		p, err := Prepare(w, seed, testSizes, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var p *Plan
	for _, w := range []string{Fig11Grid, LiveMixed} {
		p = prep(w, 7)
		a, b, c := planBytes(t, p), planBytes(t, prep(w, 7)), planBytes(t, prep(w, 8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two prepares of seed 7 differ", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 produce identical inputs", w)
		}
	}

	g, err := ctpquery.OpenGraph(p.Graph("kg-small").Path)
	if err != nil {
		t.Fatal(err)
	}
	lg := g.LiveWithConfig(ctpquery.LiveConfig{CompactThreshold: 1024})
	defer lg.Quiesce()
	db, err := ctpquery.Open(lg, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := readMutations(p.Mutations)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) <= p.PacedBatches {
		t.Fatalf("%d batches, %d paced: no bulk batches", len(batches), p.PacedBatches)
	}
	for i, b := range batches {
		mr, err := lg.Mutate(b)
		if err != nil {
			t.Fatalf("batch %d rejected: %v", i, err)
		}
		if applied := mr.NodesAdded + mr.EdgesAdded + mr.EdgesDeleted; applied != batchOps(b) {
			t.Fatalf("batch %d: %d operations submitted, %d applied", i, batchOps(b), applied)
		}
		if i%97 != 0 {
			continue
		}
		for qi := range p.Queries {
			q := &p.Queries[qi]
			res, err := db.Query(context.Background(), q.Text)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.CheckResults(q, res); err != nil {
				t.Fatalf("after batch %d (epoch %d): %s: %v", i, res.Epoch(), q.Text, err)
			}
		}
	}
	if st, _ := lg.StoreStats(); st.Compactions == 0 {
		t.Error("no compaction ran: the check did not cross one")
	}
}

// TestSmoke runs every workload for one second and requires every answer
// to match the oracle; one workload of each kind also goes through the
// traced run.
func TestSmoke(t *testing.T) {
	for _, spec := range Specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			plan, err := Prepare(spec.Name, 1, testSizes, 1, dir)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(plan, RunOptions{Seconds: 1, Smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct() {
				t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Errors)
			}
			for _, name := range []string{"setup_s", "throughput_qps", "latency_p50_ms", "peak_rss_mb"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v", name, res.Metrics[name].Value)
				}
			}
			if testing.Short() || (spec.Name != KGExplore && spec.Name != ServeHot && spec.Name != LiveMixed) {
				return
			}
			out := filepath.Join(dir, "trace.jsonl")
			traced, err := Run(plan, RunOptions{Seconds: 0.4, Smoke: true, Traced: true, TraceOut: out})
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if !traced.Correct() {
				t.Errorf("traced: %d of %d operations failed: %v", traced.Failed, traced.Attempted, traced.Errors)
			}
			for _, d := range PerLayer {
				if _, ok := traced.Metrics[d.Name]; !ok {
					t.Errorf("traced: no %s", d.Name)
				}
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			first, _, _ := strings.Cut(string(data), "\n")
			var s Span
			if err := json.Unmarshal([]byte(first), &s); err != nil || s.Name != "op" || s.EndNS <= s.StartNS {
				t.Errorf("first span %q (%v)", first, err)
			}
		})
	}
}
