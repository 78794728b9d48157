package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// kgSearch is a connectable three-member `MAX 3` MoLESP search on
// YAGOLike(2000): three neighbours of one hub, so a connecting tree
// exists, drawn until the search has results, prunes, and keeps a
// kg-explore-sized few thousand trees.
func kgSearch(tb testing.TB) (*graph.Graph, []core.SeedSet, core.Options) {
	g := gen.YAGOLike(2000, 1).Graph
	rng := rand.New(rand.NewSource(30))
	opts := core.Options{Algorithm: core.MoLESP, Filters: eql.Filters{MaxEdges: 3}}
	for try := 0; try < 200; try++ {
		hub := graph.NodeID(rng.Intn(g.NumNodes()))
		var around []graph.NodeID
		for _, e := range g.IncidentEdges(hub) {
			if o := g.Other(e, hub); o != hub && !slices.Contains(around, o) {
				around = append(around, o)
			}
		}
		if len(around) < 3 {
			continue
		}
		rng.Shuffle(len(around), func(i, j int) { around[i], around[j] = around[j], around[i] })
		seeds := core.Explicit(around[0:1], around[1:2], around[2:3])
		rs, st, err := core.Search(g, seeds, opts)
		if err != nil {
			tb.Fatal(err)
		}
		if rs.Len() > 0 && st.Pruned > 0 && st.Kept() >= 1000 && st.Kept() <= 4000 {
			return g, seeds, opts
		}
	}
	tb.Fatal("no connectable three-member MAX 3 search of a few thousand trees")
	return nil, nil, opts
}

// The knowledge-graph exploration pin, beside TestFig11GridExplorationPinned:
// on a kg-explore-shaped search (high-degree roots, many Grow
// opportunities per tree) the kernel must create, prune, pop and keep
// exactly these many provenances, and reach exactly these peaks, on the
// caller's goroutine and on one worker. The last two rows order the
// queue by a PriorityFunc that changes value among one tree's edges.
func TestKGExplorationPinned(t *testing.T) {
	g, seeds, opts := kgSearch(t)
	split := func(t *tree.Tree, e graph.EdgeID) float64 { return float64(t.Size()) + float64(e%3) }
	pins := []struct {
		k    int
		prio core.PriorityFunc
		want string
	}{
		{0, nil, "results=1 created=1870 pruned=11 pops=1855 kept=1859 peakTrees=1859 peakQueue=1711"},
		{1, nil, "results=1 created=1870 pruned=11 pops=1855 kept=1859 peakTrees=1859 peakQueue=1711"},
		{0, split, "results=1 created=1870 pruned=11 pops=1855 kept=1859 peakTrees=1859 peakQueue=1110"},
		{1, split, "results=1 created=1870 pruned=11 pops=1855 kept=1859 peakTrees=1859 peakQueue=1110"},
	}
	for _, p := range pins {
		o := opts
		o.Parallelism, o.Priority = p.k, p.prio
		rs, st, err := core.Search(g, seeds, o)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("results=%d created=%d pruned=%d pops=%d kept=%d peakTrees=%d peakQueue=%d",
			rs.Len(), st.Created, st.Pruned, st.QueuePops, st.Kept(), st.PeakTrees, st.PeakQueueLen)
		if got != p.want {
			t.Errorf("K=%d priority=%v:\n got  %s\n want %s", p.k, p.prio != nil, got, p.want)
		}
	}
}

// A bound of K = 2 is not used: kgSearch, a kg-explore-sized search, runs
// on the caller's goroutine exactly as at K = 0, every field of its Stats
// equal but the time it took.
func TestKGSearchAtK2StaysOnCaller(t *testing.T) {
	defer core.ShardedForTesting(core.ShardedForTesting(false))
	g, seeds, opts := kgSearch(t)
	var counters []string
	for _, k := range []int{0, 2} {
		opts.Parallelism = k
		rs, st, err := core.Search(g, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		st.Duration = 0
		counters = append(counters, fmt.Sprintf("%d results %+v", rs.Len(), *st))
	}
	if counters[0] != counters[1] {
		t.Fatalf("K=2 differs from K=0\nK=0: %s\nK=2: %s", counters[0], counters[1])
	}
}
