package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

// mutateStream returns n 16-op batches for g: 12 edge additions between
// random existing nodes under existing edge labels, then 4 deletions, two
// of base triples and two of triples earlier batches added.
func mutateStream(g *graph.Graph, n int, seed int64) []graph.Batch {
	r := rand.New(rand.NewSource(seed))
	triple := func(e graph.EdgeID) graph.Triple {
		return graph.Triple{Source: g.NodeLabel(g.Source(e)), Label: g.EdgeLabel(e), Target: g.NodeLabel(g.Target(e))}
	}
	randomEdge := func() graph.EdgeID { return graph.EdgeID(r.Intn(g.NumEdges())) }
	var added []graph.Triple
	out := make([]graph.Batch, n)
	for i := range out {
		b := &out[i]
		for k := 0; k < 12; k++ {
			t := graph.Triple{
				Source: g.NodeLabel(graph.NodeID(r.Intn(g.NumNodes()))),
				Label:  g.EdgeLabel(randomEdge()),
				Target: g.NodeLabel(graph.NodeID(r.Intn(g.NumNodes()))),
			}
			b.AddEdges = append(b.AddEdges, t)
		}
		for k := 0; k < 2; k++ {
			b.DelEdges = append(b.DelEdges, triple(randomEdge()))
			if len(added) == 0 {
				b.DelEdges = append(b.DelEdges, triple(randomEdge()))
				continue
			}
			j := r.Intn(len(added))
			b.DelEdges = append(b.DelEdges, added[j])
			added[j] = added[len(added)-1]
			added = added[:len(added)-1]
		}
		added = append(added, b.AddEdges...)
	}
	return out
}

// BenchmarkStoreMutate times one 16-op batch on YAGOLike(2000) against a
// delta already holding fill operations. Every window of 32 timed batches
// starts from a fresh store filled by one merged batch, so the delta a
// timed batch meets is between fill and fill+512 operations; a batch
// whose cost grows with the delta shows as a fill=4096 time far above
// fill=0's.
func BenchmarkStoreMutate(b *testing.B) {
	base := gen.YAGOLike(2000, 1).Graph
	const window = 32
	for _, fill := range []int{0, 4096} {
		b.Run(fmt.Sprintf("fill=%d", fill), func(b *testing.B) {
			pre := mutateStream(base, fill/16, 1)
			var filled graph.Batch
			for _, pb := range pre {
				filled.AddEdges = append(filled.AddEdges, pb.AddEdges...)
				filled.DelEdges = append(filled.DelEdges, pb.DelEdges...)
			}
			timed := mutateStream(base, window, 2)
			var s *graph.Store
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%window == 0 {
					b.StopTimer()
					s = graph.NewStore(base, graph.StoreOptions{CompactThreshold: -1})
					if _, err := s.Mutate(filled); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				if _, err := s.Mutate(timed[i%window]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
