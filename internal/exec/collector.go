package exec

import (
	"sort"
	"sync"

	"ctpquery/internal/core"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// collector is the shared result sink: core's single-writer
// ResultCollector — the one implementation of the result-admission
// semantics (edge-set dedup, UNI verification, scoring, streaming,
// LIMIT) — serialized behind a mutex. Results are rare relative to
// candidate trees, so the serialization is not a scalability concern;
// what the parallel path adds is finish, which orders the output
// canonically (score desc, then size, then edge-set key) so a run's
// output is deterministic given its result set and independent of
// worker arrival order.
type collector struct {
	mu    sync.Mutex
	rc    *core.ResultCollector
	score core.ScoreFunc
	topK  int
}

func newCollector(rc *core.ResultCollector, opts core.Options) *collector {
	return &collector{
		rc:    rc,
		score: opts.Score,
		topK:  opts.Filters.TopK,
	}
}

// add records a result tree; true means the LIMIT filter (or a streaming
// callback) asks the search to stop. Safe for concurrent use.
func (c *collector) add(t *tree.Tree) bool {
	probeCollectorAdd.Hit()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rc.Add(t)
}

// finish orders the results canonically and applies TOP k. The key —
// score descending, then tree size, then the edge-set key (node identity
// for 0-edge trees) — is a total order over deduplicated results, so two
// runs that found the same result set return it identically.
func (c *collector) finish() *core.ResultSet {
	results := c.rc.Results()
	keys := make([]string, len(results))
	for i, r := range results {
		keys[i] = resultKey(r.Tree)
	}
	idx := make([]int, len(results))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := results[idx[a]], results[idx[b]]
		if ra.Score != rb.Score {
			return ra.Score > rb.Score
		}
		if sa, sb := ra.Tree.Size(), rb.Tree.Size(); sa != sb {
			return sa < sb
		}
		return keys[idx[a]] < keys[idx[b]]
	})
	n := len(idx)
	if c.topK > 0 && c.score != nil && n > c.topK {
		n = c.topK
	}
	out := make([]core.Result, n)
	for i := 0; i < n; i++ {
		out[i] = results[idx[i]]
	}
	return &core.ResultSet{Results: out}
}

// resultKey is a canonical identity string: the sorted edge-ID encoding,
// or a node marker for single-node results.
func resultKey(t *tree.Tree) string {
	if t.Size() == 0 {
		return "n" + tree.EdgeSetKey([]graph.EdgeID{graph.EdgeID(t.Root)})
	}
	return tree.EdgeSetKey(t.Edges)
}
