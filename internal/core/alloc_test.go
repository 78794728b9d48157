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
