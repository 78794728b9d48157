package exec

import (
	"sync"

	"ctpquery/internal/core"
	"ctpquery/internal/graph"
)

// shardedSigSet is the concurrent entry point to signature deduplication:
// the ESP edge-set history, XOR-partitioned into 2^sigShardBits
// lock-striped core.SigSet shards. A signature's top bits pick the shard
// (XOR set signatures are uniformly mixed, so the stripes load-balance),
// and each shard's mutex serializes its single-writer SigSet — the only
// way a SigSet may be touched by more than one goroutine (see the
// contract on core.SigSet).
//
// add is an atomic claim: exactly one of any number of concurrent inserts
// of the same identity returns true, which is what makes first-past-the-
// post deduplication linearizable without a global lock.
type shardedSigSet struct {
	shards [numSigShards]sigShard
}

const (
	sigShardBits = 6
	numSigShards = 1 << sigShardBits
)

type sigShard struct {
	mu sync.Mutex
	// The table is made on the first add and kept across runs. Lock and
	// set fill one cache line, so stripe locks don't false-share under
	// contention.
	set core.SigSet
}

func (s *shardedSigSet) shard(sig uint64) *sigShard {
	return &s.shards[sig>>(64-sigShardBits)]
}

// add inserts the identity, reporting whether it was absent (the caller
// claimed it).
func (s *shardedSigSet) add(sig uint64, root graph.NodeID, edges []graph.EdgeID) bool {
	sh := s.shard(sig)
	sh.mu.Lock()
	ok := sh.set.Add(sig, root, edges)
	sh.mu.Unlock()
	return ok
}

// hasUnion reports whether the identity (root, a ∪ b) is present.
func (s *shardedSigSet) hasUnion(sig uint64, root graph.NodeID, a, b []graph.EdgeID) bool {
	sh := s.shard(sig)
	sh.mu.Lock()
	ok := sh.set.HasUnion(sig, root, a, b)
	sh.mu.Unlock()
	return ok
}
