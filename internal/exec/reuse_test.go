package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	"ctpquery/internal/fault"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

// Search state — arena, histories, slot tables, queues — is reused from
// search to search through the pools of core and exec. These tests run
// searches of very different sizes through that reused state, on every
// scheduler, and hold each to what the same search does on state no
// search has touched.

type reuseCase struct {
	name  string
	g     *graph.Graph
	seeds []core.SeedSet
	opts  core.Options

	// What the search does at K = 1 on a state made for it: its answer,
	// and its answer with the full counter set. K = 1 replays the K = 0
	// trace exactly (TestSingleWorkerExactTrace), so this is the reference
	// for both.
	answer, trace string
	// complete: the variant finds every result of this input under any
	// schedule (GAM always, MoLESP on both inputs, MoESP for m <= 3), so a
	// K = 2 run must give exactly answer. The others may miss a
	// schedule-dependent subset and are held to soundness: only results
	// GAM reports, which full lists.
	complete bool
	full     []string
}

// reuseCases pairs a large search (Star(8,2): thousands of trees, deep
// merges) with a small one (MAX 3 between three neighbours of one node of
// YAGOLike(2000)), under all five variants.
func reuseCases(t *testing.T) []reuseCase {
	star := gen.Star(8, 2, gen.Alternate)
	kg := gen.YAGOLike(2000, 1)
	var around []graph.NodeID
	for _, p := range kg.People {
		around = around[:0]
		for _, e := range kg.Graph.IncidentEdges(p) {
			if o := kg.Graph.Other(e, p); o != p && !slices.Contains(around, o) {
				around = append(around, o)
			}
		}
		if len(around) >= 3 {
			break
		}
	}
	people := core.Explicit(around[0:1], around[1:2], around[2:3])
	var cases []reuseCase
	for _, alg := range core.GAMFamily() { // GAM first: cases[0] and cases[1] hold the full answers
		always := alg == core.GAM || alg == core.MoLESP
		cases = append(cases,
			reuseCase{name: "star/" + alg.String(), g: star.Graph, seeds: core.Explicit(star.Seeds...),
				opts: core.Options{Algorithm: alg}, complete: always},
			reuseCase{name: "max3/" + alg.String(), g: kg.Graph, seeds: people,
				opts: core.Options{Algorithm: alg, Filters: eql.Filters{MaxEdges: 3}}, complete: always || alg == core.MoESP})
	}
	for i := range cases {
		c := &cases[i]
		c.opts.Parallelism = 1
		rs, st, err := new(runState).search(c.g, c.seeds, c.opts)
		if err != nil || rs.Len() == 0 {
			t.Fatalf("%s: reference search: %d results, err %v", c.name, rs.Len(), err)
		}
		c.answer, c.trace = outcome(rs, nil), outcome(rs, st)
		c.full = resultMultiset(rs)
		if i >= 2 {
			c.full = cases[i%2].full
		}
	}
	return cases
}

// outcome renders a search's answer and, given its stats, the full
// counter set — which only the deterministic schedules (K <= 1) repeat.
func outcome(rs *core.ResultSet, st *core.Stats) string {
	s := fmt.Sprintf("%q", resultMultiset(rs))
	if st != nil {
		s += fmt.Sprintf(" inits=%d grows=%d merges=%d mo=%d created=%d pruned=%d spared=%d pops=%d recycled=%d peakTrees=%d peakQueue=%d results=%d",
			st.Inits, st.Grows, st.Merges, st.MoTrees, st.Created, st.Pruned, st.Spared, st.QueuePops,
			st.Recycled, st.PeakTrees, st.PeakQueueLen, st.Results)
	}
	return s
}

// check holds one search of c at K workers to its reference.
func (c reuseCase) check(k int, rs *core.ResultSet, st *core.Stats) error {
	switch {
	case k <= 1:
		if got := outcome(rs, st); got != c.trace {
			return fmt.Errorf("%s K=%d diverges from fresh state\nwant %s\ngot  %s", c.name, k, c.trace, got)
		}
	case c.complete:
		if got := outcome(rs, nil); got != c.answer {
			return fmt.Errorf("%s K=%d answers differently\nwant %s\ngot  %s", c.name, k, c.answer, got)
		}
	default:
		for _, key := range resultMultiset(rs) {
			if !slices.Contains(c.full, key) {
				return fmt.Errorf("%s K=%d reports %q, which GAM does not", c.name, k, key)
			}
		}
	}
	return nil
}

func TestReusedStateMatchesFreshState(t *testing.T) {
	cases := reuseCases(t)
	rounds := 10
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		for _, c := range cases { // star, max3, star, ...: large and small alternate
			for _, k := range []int{0, 1, 2} {
				c.opts.Parallelism = k
				rs, st, err := core.Search(c.g, c.seeds, c.opts)
				if err == nil {
					err = c.check(k, rs, st)
				}
				if err != nil {
					t.Fatalf("round %d, on reused state: %v", round, err)
				}
			}
		}
	}
}

func TestConcurrentSearchesShareThePool(t *testing.T) {
	cases := reuseCases(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 12; i++ {
				c, k := cases[rng.Intn(len(cases))], rng.Intn(3)
				c.opts.Parallelism = k
				rs, st, err := core.Search(c.g, c.seeds, c.opts)
				if err == nil {
					err = c.check(k, rs, st)
				}
				if err != nil {
					t.Errorf("goroutine %d, beside concurrent searches: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// A run a worker panicked in must not come back: the next searches draw
// clean state and answer correctly.
func TestChaosFailedRunStateIsNotPooled(t *testing.T) {
	defer fault.Reset()
	c := reuseCases(t)[0] // GAM on Star(8,2)
	c.opts.Parallelism = 2
	for _, after := range []uint64{0, 5, 200} {
		fault.Reset()
		if err := fault.Arm("exec.worker.process_tree", fault.Fault{Kind: fault.Panic, After: after}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := core.Search(c.g, c.seeds, c.opts); !fault.IsInjected(err) {
			t.Fatalf("after=%d: want the injected panic, got %v", after, err)
		}
		fault.Reset()
		// The pool hands out its most recent return first: had the failed
		// run's state been returned, it would be among these.
		var drawn []*runState
		for i := 0; i < 8; i++ {
			st := statePool.Get()
			for _, w := range st.workers {
				if w.r != nil || len(w.q) != 0 || w.ops != 0 {
					t.Fatalf("after=%d: the pool holds a state its run never released", after)
				}
			}
			drawn = append(drawn, st)
		}
		for _, st := range drawn {
			statePool.Put(st)
		}
		rs, st, err := core.Search(c.g, c.seeds, c.opts)
		if err == nil {
			err = c.check(2, rs, st)
		}
		if err != nil {
			t.Fatalf("after=%d: the search after a failed one: %v", after, err)
		}
	}
}

// Results are copied out of the arena when they are admitted: a tree a
// caller holds has no provenance children and no slack, under every
// scheduler and already inside OnResult — and it is still the same tree
// after a thousand later searches have reused the state it was found in.
func TestResultsAreDetachedAndSurviveLaterSearches(t *testing.T) {
	w := gen.Comb(4, 2, 3, 2, gen.Alternate)
	later := []*gen.Workload{gen.Star(5, 4, gen.Alternate), gen.Line(10, 2, gen.Alternate), gen.Line(3, 3, gen.Alternate)}
	detached := func(r core.Result) error {
		tr := r.Tree
		if tr.Left != nil || tr.Right != nil || cap(tr.Edges) != len(tr.Edges) || cap(tr.Nodes) != len(tr.Nodes) || cap(tr.Sat) != len(tr.Sat) {
			return fmt.Errorf("result tree %v keeps provenance or slack (caps %d/%d/%d)", tr, cap(tr.Edges), cap(tr.Nodes), cap(tr.Sat))
		}
		return nil
	}
	type held struct {
		rs    *core.ResultSet
		edges [][]graph.EdgeID
		nodes [][]graph.NodeID
		seeds [][]graph.NodeID
	}
	var all []held
	for _, k := range []int{0, 1, 2} {
		var streamed []core.Result
		opts := core.Options{Algorithm: core.MoLESP, Parallelism: k, OnResult: func(r core.Result) bool {
			if err := detached(r); err != nil {
				t.Errorf("K=%d, in OnResult: %v", k, err)
			}
			streamed = append(streamed, r)
			return true
		}}
		rs, _, err := core.Search(w.Graph, core.Explicit(w.Seeds...), opts)
		if err != nil || rs.Len() == 0 || len(streamed) != rs.Len() {
			t.Fatalf("K=%d: %d results, %d streamed, err %v", k, rs.Len(), len(streamed), err)
		}
		h := held{rs: &core.ResultSet{Results: append(streamed, rs.Results...)}}
		for _, r := range h.rs.Results {
			if err := detached(r); err != nil {
				t.Fatalf("K=%d: %v", k, err)
			}
			h.edges = append(h.edges, slices.Clone(r.Tree.Edges))
			h.nodes = append(h.nodes, slices.Clone(r.Tree.Nodes))
			h.seeds = append(h.seeds, slices.Clone(r.Seeds))
		}
		all = append(all, h)
	}
	for i := 0; i < 1000; i++ {
		l := later[i%len(later)]
		if _, _, err := core.Search(l.Graph, core.Explicit(l.Seeds...), core.Options{Algorithm: core.MoLESP, Parallelism: i % 2 * 2}); err != nil {
			t.Fatal(err)
		}
	}
	for k, h := range all {
		for i, r := range h.rs.Results {
			if !slices.Equal(r.Tree.Edges, h.edges[i]) || !slices.Equal(r.Tree.Nodes, h.nodes[i]) || !slices.Equal(r.Seeds, h.seeds[i]) {
				t.Fatalf("K=%d: result %d changed while later searches ran: %v", k, i, r.Tree)
			}
		}
	}
}
