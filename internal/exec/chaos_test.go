package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	"ctpquery/internal/fault"
	"ctpquery/internal/gen"
	"ctpquery/internal/testutil"
)

// execProbes are the parallel runtime's registered fault points; the
// chaos suite must cover every one of them.
var execProbes = []string{
	"exec.worker.loop",
	"exec.worker.process_op",
	"exec.worker.process_tree",
	"exec.worker.process_mo",
	"exec.worker.drain_mail",
	"exec.collector.add",
}

// searchWithTimeout runs core.Search in a goroutine and fails the test
// if it neither returns nor errors within the deadline — the "injected
// panic wedges the runtime" failure mode this suite exists to catch.
func searchWithTimeout(t *testing.T, g *gen.Workload, opts core.Options) (*core.ResultSet, error) {
	t.Helper()
	type outcome struct {
		rs  *core.ResultSet
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		rs, _, err := core.Search(g.Graph, core.Explicit(g.Seeds...), opts)
		ch <- outcome{rs, err}
	}()
	select {
	case o := <-ch:
		return o.rs, o.err
	case <-time.After(30 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("search hung with fault armed\n%s", buf[:runtime.Stack(buf, true)])
		return nil, nil
	}
}

// TestChaosWorkerPanicContainment injects a panic at every exec probe
// point, across worker counts and randomized hit offsets, and asserts
// the invariant of the containment design: the query either completes
// with exactly the sequential result multiset (the fault never fired —
// that code path didn't run) or returns a contained injection error.
// It must never hang and never return silently partial results.
func TestChaosWorkerPanicContainment(t *testing.T) {
	defer fault.Reset()
	baseline := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(42))

	w := gen.Line(3, 3, gen.Alternate)
	opts := core.Options{Algorithm: core.MoLESP, Filters: eql.Filters{MaxEdges: 6}}
	want := fmt.Sprint(resultMultiset(searchOrFatal(t, w.Graph, core.Explicit(w.Seeds...), opts)))

	for _, point := range execProbes {
		for _, k := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/K=%d", point, k), func(t *testing.T) {
				fault.Reset()
				// Randomize which hit fires so different interleavings get
				// poisoned across runs: sometimes the very first op, sometimes
				// mid-search, sometimes a hit count the run never reaches.
				after := uint64(rng.Intn(40))
				if err := fault.Arm(point, fault.Fault{Kind: fault.Panic, After: after}); err != nil {
					t.Fatal(err)
				}
				popts := opts
				popts.Parallelism = k
				rs, err := searchWithTimeout(t, w, popts)
				fired := fault.Fired(point)
				switch {
				case fired > 0 && err == nil:
					t.Fatalf("fault fired (after=%d) but Search returned no error", after)
				case fired > 0 && !fault.IsInjected(err):
					t.Fatalf("fault fired but error is not the injection: %v", err)
				case fired == 0 && err != nil:
					t.Fatalf("fault never fired (after=%d) yet Search errored: %v", after, err)
				case fired == 0:
					if got := fmt.Sprint(resultMultiset(rs)); got != want {
						t.Fatalf("unfired fault changed results\nwant %s\ngot  %s", want, got)
					}
				}
			})
		}
	}
	fault.Reset()
	testutil.SettleGoroutines(t, baseline, 2)
}

// TestChaosRepeatedInjectionNoLeak hammers one search shape with a
// first-op panic many times over: each contained failure must release
// every worker and mailbox, so the goroutine count stays flat and the
// next clean search still returns the full result set.
func TestChaosRepeatedInjectionNoLeak(t *testing.T) {
	defer fault.Reset()
	baseline := runtime.NumGoroutine()

	w := gen.Star(5, 3, gen.Alternate)
	opts := core.Options{Algorithm: core.MoLESP, Parallelism: 4}
	want := fmt.Sprint(resultMultiset(searchOrFatal(t, w.Graph, core.Explicit(w.Seeds...), core.Options{Algorithm: core.MoLESP})))

	for i := 0; i < 25; i++ {
		fault.Reset()
		if err := fault.Arm("exec.worker.process_op", fault.Fault{Kind: fault.Panic}); err != nil {
			t.Fatal(err)
		}
		_, err := searchWithTimeout(t, w, opts)
		if err == nil || !fault.IsInjected(err) {
			t.Fatalf("iteration %d: want injected error, got %v", i, err)
		}
	}
	fault.Reset()
	rs, err := searchWithTimeout(t, w, opts)
	if err != nil {
		t.Fatalf("clean search after chaos errored: %v", err)
	}
	if got := fmt.Sprint(resultMultiset(rs)); got != want {
		t.Fatalf("post-chaos results diverge\nwant %s\ngot  %s", want, got)
	}
	testutil.SettleGoroutines(t, baseline, 2)
}

// TestChaosDelayInjection arms a delay (not a panic): the search must
// still complete with the exact sequential results — proving the probe
// points sit outside critical sections, where stalling a worker cannot
// corrupt shared state.
func TestChaosDelayInjection(t *testing.T) {
	defer fault.Reset()
	w := gen.Line(3, 3, gen.Alternate)
	opts := core.Options{Algorithm: core.MoLESP, Filters: eql.Filters{MaxEdges: 6}}
	want := fmt.Sprint(resultMultiset(searchOrFatal(t, w.Graph, core.Explicit(w.Seeds...), opts)))

	fault.Reset()
	if err := fault.Arm("exec.worker.process_op", fault.Fault{
		Kind: fault.Delay, Delay: 2 * time.Millisecond, After: 3, Count: 5,
	}); err != nil {
		t.Fatal(err)
	}
	popts := opts
	popts.Parallelism = 4
	rs, err := searchWithTimeout(t, w, popts)
	if err != nil {
		t.Fatalf("delay injection errored the search: %v", err)
	}
	if got := fmt.Sprint(resultMultiset(rs)); got != want {
		t.Fatalf("delay injection changed results\nwant %s\ngot  %s", want, got)
	}
}
