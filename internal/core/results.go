package core

import (
	"sort"

	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// ResultCollector accumulates result trees, deduplicating by edge set
// (single-node results by their node), verifying the UNI filter, scoring,
// and enforcing LIMIT / TOP k. It is the single source of the
// result-admission semantics: the sequential kernels use it directly and
// the parallel runtime (internal/exec) serializes Add behind a mutex and
// applies its own canonical ordering on top of Results. Like SigSet, a
// ResultCollector is single-writer — Add must not be called concurrently.
type ResultCollector struct {
	g        *graph.Graph
	si       *seedIndex
	uni      bool
	score    ScoreFunc
	topK     int
	limit    int
	onResult func(Result) bool

	seen     SigSet
	results  []Result
	limitHit bool
}

// start readies rc, zero or Reset, for one search's options.
func (rc *ResultCollector) start(g *graph.Graph, si *seedIndex, opts Options) {
	rc.g, rc.si, rc.uni, rc.score = g, si, opts.Filters.Uni, opts.Score
	rc.topK, rc.limit, rc.onResult = opts.Filters.TopK, opts.Filters.Limit, opts.OnResult
}

// Reset empties rc for the next search, keeping the memory of its dedup
// table; the results it handed out stay the caller's.
func (rc *ResultCollector) Reset() {
	rc.seen.Reset()
	rc.g, rc.si, rc.score, rc.onResult = nil, nil, nil, nil
	rc.results, rc.limitHit = nil, false
}

// Add records a result tree. It returns true when the LIMIT filter is
// reached (or a streaming callback declined more) and the search should
// stop.
func (rc *ResultCollector) Add(t *tree.Tree) bool {
	if rc.limitHit {
		return true
	}
	sig, root, edges := treeIdentity(t)
	if rc.seen.Has(sig, root, edges) {
		return false
	}
	if rc.uni && t.Size() > 0 {
		if _, ok := tree.UnidirectionalRoot(rc.g, t.Edges); !ok {
			return false
		}
	}
	rc.seen.Add(sig, root, edges)
	// The result leaves the search here: a copy that shares nothing with
	// the arena t lives in, so neither the callback, the caller nor a cache
	// ever holds memory the next search reuses — or pins a provenance DAG.
	t = t.Detach()
	r := Result{Tree: t, Seeds: rc.si.seedTuple(t)}
	if rc.score != nil {
		r.Score = rc.score(rc.g, t)
	}
	rc.results = append(rc.results, r)
	if rc.onResult != nil && !rc.onResult(r) {
		rc.limitHit = true
		return true
	}
	if rc.limit > 0 && len(rc.results) >= rc.limit {
		rc.limitHit = true
		return true
	}
	return false
}

// Results returns the results admitted so far, in discovery order. The
// slice is the collector's own; callers must not mutate it while the
// search runs.
func (rc *ResultCollector) Results() []Result { return rc.results }

// finish applies TOP k and returns the final result set.
func (rc *ResultCollector) finish() *ResultSet {
	rs := &ResultSet{Results: rc.results}
	if rc.topK > 0 && rc.score != nil && len(rs.Results) > rc.topK {
		// Stable: equal scores keep discovery order.
		idx := make([]int, len(rs.Results))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return rs.Results[idx[a]].Score > rs.Results[idx[b]].Score
		})
		top := make([]Result, rc.topK)
		for i := 0; i < rc.topK; i++ {
			top[i] = rs.Results[idx[i]]
		}
		rs.Results = top
	}
	return rs
}
