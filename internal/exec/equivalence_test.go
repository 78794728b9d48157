package exec

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// The equivalence property: on the paper's completeness envelope — GAM
// for any m, ESP and LESP for m = 2, MoLESP for m <= 3 — the algorithms
// are complete under ANY exploration order (Section 4.8, encoded by the
// core completeness tests), and always sound. Both the sequential kernel
// and every parallel schedule therefore report exactly the reference
// result set, so their result multisets must be identical. These tests
// assert that against the sequential kernel over random graphs, seed
// sets, filters, and worker counts; run them with -race to exercise the
// exchange and striped-dedup machinery under the detector.

// resultMultiset canonicalizes a result set: one key per result
// (deduplicated edge set or single node), sorted.
func resultMultiset(rs *core.ResultSet) []string {
	out := make([]string, 0, len(rs.Results))
	for _, r := range rs.Results {
		out = append(out, resultKey(r.Tree))
	}
	sort.Strings(out)
	return out
}

func searchOrFatal(t *testing.T, g *graph.Graph, seeds []core.SeedSet, opts core.Options) *core.ResultSet {
	t.Helper()
	rs, _, err := core.Search(g, seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// envelope lists the (algorithm, m) pairs whose completeness holds for
// any order, making result sets schedule-independent.
var envelope = []struct {
	alg core.Algorithm
	m   int
}{
	{core.GAM, 2}, {core.GAM, 3},
	{core.ESP, 2},
	{core.LESP, 2},
	{core.MoLESP, 2}, {core.MoLESP, 3},
}

func TestParallelSequentialEquivalence(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for _, cfg := range envelope {
		cfg := cfg
		t.Run(fmt.Sprintf("%v/m=%d", cfg.alg, cfg.m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(100*cfg.m) + int64(cfg.alg)))
			for trial := 0; trial < trials; trial++ {
				g := gen.Random(8+rng.Intn(4), 10+rng.Intn(6), []string{"a", "b"}, rng)
				seeds := core.Explicit(gen.RandomSeedSets(g, cfg.m, 2, rng)...)
				opts := core.Options{
					Algorithm: cfg.alg,
					Filters:   eql.Filters{MaxEdges: 4},
				}
				want := resultMultiset(searchOrFatal(t, g, seeds, opts))
				for _, k := range []int{2, 4, 8} {
					opts.Parallelism = k
					got := resultMultiset(searchOrFatal(t, g, seeds, opts))
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("trial %d, K=%d: parallel results diverge\nseq: %v\npar: %v",
							trial, k, want, got)
					}
				}
			}
		})
	}
}

// A single worker replays the caller-goroutine exploration exactly —
// same routing (every node owned by worker 0), same FIFO seq order — so
// every effort counter must match, for every GAM-family algorithm, any m
// and any filter, truncated runs included. Both sides drive the one
// core.Kernel, so a divergence here is by construction a scheduler bug.
func TestSingleWorkerExactTrace(t *testing.T) {
	type input struct {
		name  string
		g     *graph.Graph
		seeds []core.SeedSet
		max   int // MAX filter on every run of this input (0 = none)
	}
	var inputs []input
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		g := gen.Random(9, 12, []string{"a", "b", "c"}, rng)
		m := 2 + rng.Intn(3)
		seeds := core.Explicit(gen.RandomSeedSets(g, m, 2, rng)...)
		inputs = append(inputs, input{fmt.Sprintf("random-%d", trial), g, seeds, 5})
	}
	// The fig11-grid shapes of the repository benchmark.
	shapes := []*gen.Workload{
		gen.Line(10, 2, gen.Alternate),
		gen.Star(5, 4, gen.Alternate),
		gen.Comb(4, 2, 3, 2, gen.Alternate),
		gen.Star(8, 2, gen.Alternate),
	}
	if !testing.Short() {
		shapes = append(shapes, gen.Star(10, 2, gen.Alternate))
	}
	for _, w := range shapes {
		inputs = append(inputs, input{w.Name, w.Graph, core.Explicit(w.Seeds...), 0})
	}
	filters := []eql.Filters{{}, {Limit: 1}, {Uni: true}, {Labels: []string{"a", "b"}}}
	counters := func(st *core.Stats) string {
		return fmt.Sprintf("inits=%d grows=%d merges=%d mo=%d created=%d pruned=%d spared=%d pops=%d "+
			"recycled=%d peakTrees=%d peakQueue=%d results=%d truncated=%v",
			st.Inits, st.Grows, st.Merges, st.MoTrees, st.Created, st.Pruned, st.Spared, st.QueuePops,
			st.Recycled, st.PeakTrees, st.PeakQueueLen, st.Results, st.Truncated)
	}
	for _, in := range inputs {
		for _, alg := range core.GAMFamily() {
			for _, f := range filters {
				for _, maxTrees := range []int{0, 50} {
					f.MaxEdges = in.max
					opts := core.Options{Algorithm: alg, Filters: f, MaxTrees: maxTrees}
					seqRS, seqST, err := core.Search(in.g, in.seeds, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Parallelism = 1
					parRS, parST, err := core.Search(in.g, in.seeds, opts)
					if err != nil {
						t.Fatal(err)
					}
					id := fmt.Sprintf("%s %v %+v MaxTrees=%d", in.name, alg, f, maxTrees)
					if fmt.Sprint(resultMultiset(parRS)) != fmt.Sprint(resultMultiset(seqRS)) {
						t.Fatalf("%s: K=1 results diverge from K=0", id)
					}
					if seq, par := counters(seqST), counters(parST); seq != par {
						t.Fatalf("%s: K=1 trace diverges\nK=0: %s\nK=1: %s", id, seq, par)
					}
				}
			}
		}
	}
}

// Pushed-down filters must behave identically in parallel: LABEL
// restricts the edge universe, MAX the tree size, UNI the root
// direction — all order-independent restrictions of the search space.
func TestParallelFilterEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		g := gen.Random(10, 14, []string{"a", "b", "c"}, rng)
		seeds := core.Explicit(gen.RandomSeedSets(g, 2, 2, rng)...)
		filters := []eql.Filters{
			{MaxEdges: 3},
			{MaxEdges: 5, Labels: []string{"a", "b"}},
			{MaxEdges: 4, Uni: true},
		}
		for _, f := range filters {
			opts := core.Options{Algorithm: core.MoLESP, Filters: f}
			want := resultMultiset(searchOrFatal(t, g, seeds, opts))
			opts.Parallelism = 4
			got := resultMultiset(searchOrFatal(t, g, seeds, opts))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d filters %+v: parallel diverges\nseq: %v\npar: %v",
					trial, f, want, got)
			}
		}
	}
}

// The paper's synthetic workloads have exactly one result on the
// completeness envelope; all worker counts must find it.
func TestParallelWorkloadsUniqueResult(t *testing.T) {
	workloads := []*gen.Workload{
		gen.Line(3, 4, gen.Alternate),
		gen.Star(5, 3, gen.Alternate),
		gen.Comb(3, 2, 2, 2, gen.Alternate),
	}
	for _, w := range workloads {
		for _, k := range []int{1, 2, 4, 8} {
			rs, st, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
				Algorithm:   core.MoLESP,
				Parallelism: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rs.Len() != 1 {
				t.Fatalf("%s K=%d: %d results, want 1", w.Name, k, rs.Len())
			}
			if st.Parallelism != k {
				t.Fatalf("%s: Stats.Parallelism = %d, want %d", w.Name, st.Parallelism, k)
			}
		}
	}
}

// Universal seed sets keep growing past the first covering tree
// (Definition 2.8's adjustment); the parallel runtime must reproduce the
// sequential enumeration.
func TestParallelUniversalSeedSet(t *testing.T) {
	w := gen.Line(2, 1, gen.Forward) // A - x - B: 2 edges
	a := w.Seeds[0][0]
	seeds := []core.SeedSet{{Nodes: []graph.NodeID{a}}, {Universal: true}}
	for _, k := range []int{1, 2, 4} {
		rs, _, err := core.Search(w.Graph, seeds, core.Options{Algorithm: core.MoLESP, Parallelism: k})
		if err != nil {
			t.Fatal(err)
		}
		if rs.Len() != 3 {
			t.Fatalf("K=%d: universal set gave %d results, want 3", k, rs.Len())
		}
	}
}

// LIMIT stops a parallel search at exactly the requested number of
// results (which ones is schedule-dependent, as documented).
func TestParallelLimit(t *testing.T) {
	w := gen.Chain(10) // exponentially many results
	for _, k := range []int{2, 4} {
		rs, st, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
			Algorithm:   core.MoLESP,
			Parallelism: k,
			Filters:     eql.Filters{Limit: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rs.Len() != 5 {
			t.Fatalf("K=%d: LIMIT 5 gave %d results", k, rs.Len())
		}
		if !st.Truncated {
			t.Fatalf("K=%d: Truncated not reported", k)
		}
	}
}

// A zero timeout must abort promptly and report TimedOut, with whatever
// partial results were found remaining valid.
func TestParallelTimeout(t *testing.T) {
	w := gen.Chain(16)
	start := time.Now()
	_, st, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
		Algorithm:   core.MoLESP,
		Parallelism: 4,
		Filters:     eql.Filters{Timeout: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.TimedOut {
		t.Fatal("TimedOut not reported")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout took %v to take effect", time.Since(start))
	}
}

// Closing Options.Done cancels a running parallel search.
func TestParallelCancellation(t *testing.T) {
	w := gen.Chain(16)
	done := make(chan struct{})
	go func() {
		time.Sleep(2 * time.Millisecond)
		close(done)
	}()
	_, st, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
		Algorithm:   core.MoLESP,
		Parallelism: 4,
		Done:        done,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.TimedOut {
		t.Fatal("cancellation not reported through TimedOut")
	}
}

// MaxTrees truncates across workers via the shared kept counter.
func TestParallelMaxTrees(t *testing.T) {
	w := gen.Chain(12)
	_, st, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
		Algorithm:   core.MoLESP,
		Parallelism: 4,
		MaxTrees:    20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated {
		t.Fatal("MaxTrees truncation not reported")
	}
}

// OnResult streams every deduplicated result exactly once, from whichever
// worker finds it; returning false stops the search.
func TestParallelOnResult(t *testing.T) {
	w := gen.Line(3, 4, gen.Alternate)
	var streamed []string
	rs, _, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
		Algorithm:   core.MoLESP,
		Parallelism: 4,
		OnResult: func(r core.Result) bool {
			streamed = append(streamed, resultKey(r.Tree)) // serialized by the collector
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != rs.Len() {
		t.Fatalf("streamed %d results, collected %d", len(streamed), rs.Len())
	}
}

// Per-worker statistics must be reported and add up to the totals.
func TestParallelWorkerStats(t *testing.T) {
	w := gen.Star(6, 4, gen.Alternate)
	_, st, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
		Algorithm:   core.MoLESP,
		Parallelism: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Parallelism != 4 || len(st.Workers) != 4 {
		t.Fatalf("Parallelism=%d Workers=%d, want 4/4", st.Parallelism, len(st.Workers))
	}
	kept := 0
	for _, ws := range st.Workers {
		kept += ws.Kept
	}
	if kept != st.Kept() {
		t.Fatalf("sum of worker Kept %d != Stats.Kept %d", kept, st.Kept())
	}
}

// Mo re-rootings that cross shards (MoESP) must still satisfy Property 5:
// all path results found, any schedule. Line workloads make every result
// a path.
func TestParallelMoESPPathResults(t *testing.T) {
	for _, m := range []int{3, 5} {
		w := gen.Line(m, 1, gen.Alternate)
		for _, k := range []int{2, 4, 8} {
			rs, _, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
				Algorithm:   core.MoESP,
				Parallelism: k,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rs.Len() != 1 {
				t.Fatalf("MoESP m=%d K=%d: %d results, want 1 (Property 5)", m, k, rs.Len())
			}
		}
	}
}

// tree package sanity: canonical result keys are unique per identity.
func TestResultKeyDistinguishesNodesFromEdges(t *testing.T) {
	b := graph.NewBuilder()
	n0 := b.AddNode("x")
	n1 := b.AddNode("y")
	b.AddEdge(n0, "t", n1)
	init := tree.NewInit(n0, nil)
	if resultKey(init) == "" || resultKey(init)[0] != 'n' {
		t.Fatalf("single-node key %q not node-tagged", resultKey(init))
	}
}
