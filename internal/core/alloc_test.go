package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	_ "ctpquery/internal/exec" // the Parallelism > 0 runtime
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

// max3Search is a `MAX 3` three-member enumeration on YAGOLike(2000), the
// shape of a cheap serving query: three people, every connecting tree of
// at most three edges.
func max3Search(tb testing.TB) (*graph.Graph, []core.SeedSet, core.Options) {
	kg := gen.YAGOLike(2000, 1)
	rng := rand.New(rand.NewSource(18))
	opts := core.Options{Algorithm: core.MoLESP, Filters: eql.Filters{MaxEdges: 3}}
	for try := 0; try < 200; try++ {
		seeds := core.Explicit(
			[]graph.NodeID{kg.People[rng.Intn(len(kg.People))]},
			[]graph.NodeID{kg.People[rng.Intn(len(kg.People))]},
			[]graph.NodeID{kg.People[rng.Intn(len(kg.People))]},
		)
		_, st, err := core.Search(kg.Graph, seeds, opts)
		if err != nil {
			tb.Fatal(err)
		}
		if kept := st.Kept(); kept >= 300 && kept <= 600 {
			return kg.Graph, seeds, opts
		}
	}
	tb.Fatal("no three people whose MAX 3 search keeps ~400 trees")
	return nil, nil, opts
}

// A warm search allocates per search, not per tree: its trees, partner
// runs, histories and queue are the pooled state's, so what is left is the
// setup, the collector and the results. The same search made ~1,000
// allocations when every kept tree was a heap object.
func TestWarmSearchAllocatesPerSearchNotPerTree(t *testing.T) {
	g, seeds, opts := max3Search(t)
	warmAllocsAtMost64(t, g, seeds, opts)
}

// The same bound on kgSearch, whose tables reach a few thousand slots:
// their slot and record arrays are kept from one search to the next.
func TestWarmKGSearchAllocatesPerSearchNotPerTree(t *testing.T) {
	g, seeds, opts := kgSearch(t)
	warmAllocsAtMost64(t, g, seeds, opts)
}

func warmAllocsAtMost64(t *testing.T, g *graph.Graph, seeds []core.SeedSet, opts core.Options) {
	var kept int
	allocs := testing.AllocsPerRun(50, func() {
		_, st, err := core.Search(g, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		kept = st.Kept()
	})
	t.Logf("%d kept trees, %.0f allocations per warm search", kept, allocs)
	if allocs > 64 {
		t.Fatalf("a warm search of %d kept trees made %.0f allocations, want <= 64", kept, allocs)
	}
}

// fig11Cycle is fig11-grid's plan: the Figure 11 graphs (Line m=10, Star
// m=5, Comb nA=4, Star m=8, Star m=10) searched by MoLESP in its 32-search
// cycle, a sequence whose tables grow from a few slots to thousands.
func fig11Cycle() (gs []*graph.Graph, seeds [][]core.SeedSet, pattern []int) {
	for _, w := range []*gen.Workload{
		gen.Line(10, 2, gen.Alternate),
		gen.Star(5, 4, gen.Alternate),
		gen.Comb(4, 2, 3, 2, gen.Alternate),
		gen.Star(8, 2, gen.Alternate),
		gen.Star(10, 2, gen.Alternate),
	} {
		gs, seeds = append(gs, w.Graph), append(seeds, core.Explicit(w.Seeds...))
	}
	pattern = []int{
		3, 2, 3, 0, 3, 1, 3, 2, 3, 4, 3, 2, 3, 0, 3, 1,
		3, 2, 3, 0, 3, 1, 3, 2, 3, 2, 3, 0, 3, 1, 3, 2,
	}
	return gs, seeds, pattern
}

// fig11-grid's cycle makes at most 17 allocations per search sequentially
// and 28.6 at K = 2. That holds because a table's record array is kept
// with its slots from one search to the next, the seed index reserves its
// table at its final size, and the result collector, dedup table
// included, is the pooled state's; without any one of these the cycle
// makes more.
func TestFig11CycleAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Star m=10 three times")
	}
	gs, seeds, pattern := fig11Cycle()
	for _, c := range []struct {
		k    int
		want float64
	}{{0, 17}, {2, 28.6}} {
		opts := core.Options{Algorithm: core.MoLESP, Parallelism: c.k}
		allocs := testing.AllocsPerRun(2, func() {
			for _, i := range pattern {
				if _, _, err := core.Search(gs[i], seeds[i], opts); err != nil {
					t.Fatal(err)
				}
			}
		}) / float64(len(pattern))
		t.Logf("K=%d: %.2f allocations per search", c.k, allocs)
		if allocs > c.want {
			t.Errorf("K=%d: fig11-grid's cycle made %.2f allocations per search, want <= %.1f", c.k, allocs, c.want)
		}
	}
}

func BenchmarkSearchMax3(b *testing.B) {
	g, seeds, opts := max3Search(b)
	for _, k := range []int{0, 2} {
		opts.Parallelism = k
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Search(g, seeds, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
