package core

import (
	"container/heap"
	"sort"
	"sync"
	"time"

	"ctpquery/internal/bitset"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// The breadth-first baselines of Sections 4.1 and 4.3. Unlike GAM, BFT
// views a tree as a plain set of edges (no root) and grows it from any of
// its nodes, so a potential result must be minimized (non-seed leaves
// peeled) before being reported — the overhead the paper measures in
// Figure 10. BFT-M additionally merges each freshly grown tree with every
// compatible partner once; BFT-AM re-merges merge results aggressively.

// bftTree is an unrooted tree: sorted edges and nodes plus seed coverage.
// Candidates come from a sync.Pool; a tree rejected by the history hands
// its buffers straight back (see bftRelease), so at steady state the
// grow/merge loop allocates only for trees it keeps. sat is a read-only
// view that may alias the parent tree's bits when growing added no seed;
// satBuf is the buffer this tree owns for non-aliased signatures.
type bftTree struct {
	edges  []graph.EdgeID
	nodes  []graph.NodeID
	sat    bitset.Bits
	satBuf bitset.Bits
	sig    uint64 // edge-set signature (tree.SetSigBasis when empty)
	seq    uint64

	// Inline storage: a fresh candidate is one allocation, not four;
	// larger trees spill to the heap via the Into helpers.
	inlineEdges [16]graph.EdgeID
	inlineNodes [17]graph.NodeID
	inlineSat   [2]uint64
}

var bftTreePool = sync.Pool{New: func() any {
	t := new(bftTree)
	t.edges = t.inlineEdges[:0]
	t.nodes = t.inlineNodes[:0]
	t.satBuf = bitset.Bits(t.inlineSat[:0])
	return t
}}

// bftAcquire returns a pooled tree whose buffers keep their capacity but
// hold no elements.
func bftAcquire() *bftTree {
	t := bftTreePool.Get().(*bftTree)
	t.edges = t.edges[:0]
	t.nodes = t.nodes[:0]
	t.sat = nil
	t.satBuf = t.satBuf[:0]
	t.sig = 0
	t.seq = 0
	return t
}

// bftRelease recycles a rejected candidate. The caller must ensure no
// history, index, or queue references the tree or its slices.
func bftRelease(t *bftTree) { bftTreePool.Put(t) }

func (t *bftTree) size() int { return len(t.edges) }

// identity returns the history signature and collision-check identity:
// edge trees by their edge set, single-node trees by their node.
func (t *bftTree) identity() (sig uint64, root graph.NodeID, edges []graph.EdgeID) {
	if len(t.edges) == 0 {
		return tree.NodeSig(t.nodes[0]), t.nodes[0], nil
	}
	return t.sig, unrootedRef, t.edges
}

func (t *bftTree) containsNode(n graph.NodeID) bool {
	i := sort.Search(len(t.nodes), func(i int) bool { return t.nodes[i] >= n })
	return i < len(t.nodes) && t.nodes[i] == n
}

// bftHeap orders trees smallest-first (BFS generations), FIFO among equals.
type bftHeap []*bftTree

func (h bftHeap) Len() int { return len(h) }
func (h bftHeap) Less(i, j int) bool {
	if len(h[i].edges) != len(h[j].edges) {
		return len(h[i].edges) < len(h[j].edges)
	}
	return h[i].seq < h[j].seq
}
func (h bftHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *bftHeap) Push(x interface{}) { *h = append(*h, x.(*bftTree)) }
func (h *bftHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type bftState struct {
	g        *graph.Graph
	si       *seedIndex
	opts     Options
	variant  Algorithm
	allowed  labelSet
	maxEdges int

	queue  bftHeap
	seq    uint64
	hist   SigSet
	byNode map[graph.NodeID][]*bftTree

	collector *ResultCollector
	stats     *Stats
	dl        deadline
	stop      bool
}

// bftSearch runs BFT, BFT-M, or BFT-AM.
func bftSearch(g *graph.Graph, seeds []SeedSet, opts Options) (*ResultSet, *Stats, error) {
	start := time.Now()
	si := buildSeedIndex(seeds)
	s := &bftState{
		g:        g,
		si:       si,
		opts:     opts,
		variant:  opts.Algorithm,
		allowed:  labelAllow(g, opts.Filters.Labels),
		maxEdges: opts.Filters.MaxEdges,
		byNode:   make(map[graph.NodeID][]*bftTree),
		stats:    &Stats{},
		dl:       newDeadline(opts.Filters.Timeout, opts.Done),
	}
	s.collector = new(ResultCollector)
	s.collector.start(g, si, opts)

	// Generation T0: one-node trees for every seed.
	for _, n := range si.inits {
		t := bftAcquire()
		t.nodes = append(t.nodes, n)
		t.satBuf = bitset.UnionInto(t.satBuf, si.mask(n), nil)
		t.sat = t.satBuf
		t.sig = tree.SetSigBasis
		s.stats.created()
		s.admitOrRelease(t, tree.Init)
		if s.stop {
			break
		}
	}

	for !s.stop && len(s.queue) > 0 {
		t := heap.Pop(&s.queue).(*bftTree)
		probeBftPop.Hit()
		s.stats.QueuePops++
		if s.dl.expired() {
			s.stats.TimedOut = true
			break
		}
		s.growAll(t)
	}

	s.stats.Duration = time.Since(start)
	rs := s.collector.finish()
	s.stats.Results = len(rs.Results)
	return rs, s.stats, nil
}

// admitOrRelease routes a freshly built candidate through admit and hands
// rejected candidates back to the pool.
func (s *bftState) admitOrRelease(t *bftTree, kind tree.Kind) {
	if !s.admit(t, kind) {
		s.stats.Recycled++
		bftRelease(t)
	}
}

// admit deduplicates a freshly built tree and routes it: covering trees
// are minimized and reported; other trees are indexed, queued for growth,
// and — depending on the variant and the tree's provenance kind — merged
// with their partners (BFT-M merges Grow trees once; BFT-AM merges
// everything, recursively). It reports whether the tree was retained by
// any search structure; a false return means the caller may recycle it.
func (s *bftState) admit(t *bftTree, kind tree.Kind) bool {
	if s.stop {
		return false
	}
	if s.dl.expired() {
		s.stats.TimedOut = true
		s.stop = true
		return false
	}
	sig, root, edges := t.identity()
	if !s.hist.Add(sig, root, edges) {
		s.stats.Pruned++
		return false
	}
	// From here on the history references t.edges: the tree is retained.
	switch kind {
	case tree.Init:
		s.stats.Inits++
	case tree.Grow:
		s.stats.Grows++
	case tree.Merge:
		s.stats.Merges++
	}
	if s.opts.MaxTrees > 0 && s.stats.Kept() >= s.opts.MaxTrees {
		s.stats.Truncated = true
		s.stop = true
		return true
	}

	if s.si.covers(t.sat) {
		s.reportMinimized(t)
		if !s.si.hasUniversal {
			return true
		}
		if s.stop {
			return true
		}
	}

	for _, n := range t.nodes {
		s.byNode[n] = append(s.byNode[n], t)
	}
	s.seq++
	t.seq = s.seq
	heap.Push(&s.queue, t)
	s.stats.noteQueueLen(len(s.queue))

	merge := false
	switch s.variant {
	case BFTM:
		merge = kind == tree.Grow // no Merge on top of Merge results
	case BFTAM:
		merge = kind != tree.Init
	}
	if merge {
		s.mergePass(t)
	}
	return true
}

// growAll extends t by every admissible adjacent edge — from any node, the
// defining difference with GAM's root-only growth.
func (s *bftState) growAll(t *bftTree) {
	if s.maxEdges > 0 && t.size() >= s.maxEdges {
		return
	}
	for _, n := range t.nodes {
		for _, e := range s.g.IncidentEdges(n) {
			if s.stop {
				return
			}
			if !s.allowed.allows(s.g.EdgeLabelID(e)) {
				continue
			}
			other := s.g.Other(e, n)
			if t.containsNode(other) {
				continue // Grow1
			}
			if s.si.mask(other).Intersects(t.sat) {
				continue // Grow2
			}
			grown := bftAcquire()
			grown.edges = tree.InsertInto(grown.edges, t.edges, e)
			grown.nodes = tree.InsertInto(grown.nodes, t.nodes, other)
			if mask := s.si.mask(other); mask.IsEmpty() {
				grown.sat = t.sat // alias: a non-seed adds no bits
			} else {
				grown.satBuf = bitset.UnionInto(grown.satBuf, t.sat, mask)
				grown.sat = grown.satBuf
			}
			grown.sig = t.sig ^ tree.EdgeSig(e)
			s.stats.created()
			s.admitOrRelease(grown, tree.Grow)
		}
	}
}

// mergePass merges t with every compatible partner: trees sharing exactly
// one node, with disjoint coverage outside that node's own seed sets.
// Merge results re-enter admit, which re-merges them only under BFT-AM.
func (s *bftState) mergePass(t *bftTree) {
	for _, n := range t.nodes {
		partners := s.byNode[n]
		limit := len(partners) // snapshot: admit may append
		mask := s.si.mask(n)   // invariant over the partner scan
		for i := 0; i < limit; i++ {
			if s.stop {
				return
			}
			p := partners[i]
			if p == t || !s.bftMergeable(t, p, n, mask) {
				continue
			}
			merged := bftAcquire()
			merged.edges = tree.UnionInto(merged.edges, t.edges, p.edges)
			merged.nodes = tree.UnionInto(merged.nodes, t.nodes, p.nodes)
			merged.satBuf = bitset.UnionInto(merged.satBuf, t.sat, p.sat)
			merged.sat = merged.satBuf
			merged.sig = tree.MergeSigs(t.sig, p.sig)
			s.stats.created()
			s.admitOrRelease(merged, tree.Merge)
		}
	}
}

// bftMergeable checks the unrooted merge preconditions at shared node n,
// whose seed memberships are mask: the node sets intersect exactly in {n}
// and no seed set is represented on both sides except through n itself.
func (s *bftState) bftMergeable(a, b *bftTree, n graph.NodeID, mask bitset.Bits) bool {
	if len(a.edges) == 0 || len(b.edges) == 0 {
		return false
	}
	if s.maxEdges > 0 && len(a.edges)+len(b.edges) > s.maxEdges {
		return false
	}
	if a.sat.IntersectsOutside(b.sat, mask) {
		return false
	}
	common := 0
	i, j := 0, 0
	for i < len(a.nodes) && j < len(b.nodes) {
		switch {
		case a.nodes[i] < b.nodes[j]:
			i++
		case a.nodes[i] > b.nodes[j]:
			j++
		default:
			if a.nodes[i] != n {
				return false
			}
			common++
			i++
			j++
		}
	}
	return common == 1
}

// reportMinimized peels non-seed leaves (Section 4.1's minimization) and
// reports the minimal tree.
func (s *bftState) reportMinimized(t *bftTree) {
	edges := tree.Minimize(s.g, t.edges, s.si.isSeed)
	var rt *tree.Tree
	if len(edges) == 0 {
		rt = tree.NewInit(t.nodes[0], s.si.mask(t.nodes[0]))
		if !s.si.covers(rt.Sat) {
			return
		}
	} else {
		nodes := tree.NodesOfEdges(s.g, edges)
		var sat bitset.Bits
		for _, n := range nodes {
			(&sat).UnionInPlace(s.si.mask(n))
		}
		if !s.si.covers(sat) {
			return
		}
		rt = &tree.Tree{Root: nodes[0], Edges: edges, Nodes: nodes, Sat: sat}
	}
	if s.collector.Add(rt) {
		s.stats.Truncated = true
		s.stop = true
	}
}
