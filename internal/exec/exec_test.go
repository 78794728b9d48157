package exec

import (
	"sync"
	"testing"

	"ctpquery/internal/core"
	"ctpquery/internal/graph"
)

// The striped signature set must grant exactly one claim per identity no
// matter how many workers race on it.
func TestShardedSigSetSingleClaim(t *testing.T) {
	s := new(shardedSigSet)
	const goroutines = 8
	const identities = 2000
	sets := make([][]graph.EdgeID, identities)
	sigs := make([]uint64, identities)
	for i := range sets {
		sets[i] = []graph.EdgeID{graph.EdgeID(i), graph.EdgeID(i + 1)}
		sigs[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	claims := make([][]bool, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		gi := gi
		claims[gi] = make([]bool, identities)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range sets {
				claims[gi][i] = s.add(sigs[i], -1, sets[i])
			}
		}()
	}
	wg.Wait()
	for i := 0; i < identities; i++ {
		won := 0
		for gi := 0; gi < goroutines; gi++ {
			if claims[gi][i] {
				won++
			}
		}
		if won != 1 {
			t.Fatalf("identity %d claimed %d times, want exactly 1", i, won)
		}
		if !s.hasUnion(sigs[i], -1, sets[i], nil) {
			t.Fatalf("identity %d missing after claim", i)
		}
	}
}

// stealTail must keep the remaining slice a valid min-heap and take at
// most half the queue.
func TestLockedQueueStealTail(t *testing.T) {
	var q lockedQueue
	for i := 0; i < 100; i++ {
		q.push(core.GrowOp{Prio: float64((i * 37) % 100), Seq: uint64(i)})
	}
	stolen := q.stealTail(stealBatch)
	if len(stolen) != 50 {
		t.Fatalf("stole %d ops, want 50", len(stolen))
	}
	// Remaining pops must come out in nondecreasing (prio, seq) order.
	prev := -1.0
	for {
		op, ok := q.pop()
		if !ok {
			break
		}
		if op.Prio < prev {
			t.Fatalf("heap order violated after steal: %f after %f", op.Prio, prev)
		}
		prev = op.Prio
	}
	// A one-element queue is never stolen empty.
	q.push(core.GrowOp{Prio: 1})
	if got := q.stealTail(stealBatch); len(got) != 0 {
		t.Fatalf("stole %d from a single-op queue, want 0", len(got))
	}
}

// Worker ownership must cover every worker for a spread of node IDs, so
// shards actually balance.
func TestOwnerSpread(t *testing.T) {
	r := &run{k: 8}
	seen := make(map[int]int)
	for n := 0; n < 10000; n++ {
		o := r.owner(graph.NodeID(n))
		if o < 0 || o >= 8 {
			t.Fatalf("owner(%d) = %d out of range", n, o)
		}
		seen[o]++
	}
	for w := 0; w < 8; w++ {
		if seen[w] < 10000/8/2 {
			t.Fatalf("worker %d owns only %d of 10000 nodes — sharding is skewed", w, seen[w])
		}
	}
}
