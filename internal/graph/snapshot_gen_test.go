package graph_test

import (
	"bytes"
	"testing"

	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

// BenchmarkReadSnapshot times one cold load of a YAGOLike(20000) snapshot
// (~80k nodes, ~260k edges) from memory: decode, validation, the index
// freeze and the content fingerprint.
func BenchmarkReadSnapshot(b *testing.B) {
	g := gen.YAGOLike(20000, 1).Graph
	var buf bytes.Buffer
	if err := graph.WriteSnapshot(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadSnapshot(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSnapshotRoundTripGenerated: YAGOLike(12000) has more than
// graph.ConcurrentFreezeEdges edges, so its Build and its load freeze on
// goroutines; YAGOLike(2000)'s freeze runs on the caller's.
func TestSnapshotRoundTripGenerated(t *testing.T) {
	for _, scale := range []int{2000, 12000} {
		graph.CheckSnapshotRoundTrip(t, gen.YAGOLike(scale, 1).Graph)
	}
}
