package core

import (
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// SigSet is the deduplication history of a search: a two-level set keyed
// by 64-bit edge-set signatures (internal/tree/sig.go), with each bucket
// holding the collision-checked entries behind the hash. At steady state a
// membership test is one map probe plus one slice compare — no string key
// is ever built, unlike the EdgeSetKey histories this replaces.
//
// CONCURRENCY CONTRACT — SINGLE WRITER. A SigSet is deliberately
// unsynchronized: Add must only ever be called from one goroutine at a
// time, and Has must not race with Add. The sequential kernels satisfy
// this trivially; the parallel runtime (internal/exec) never shares a
// SigSet between workers — its sharded wrapper (exec's lock-striped
// signature shards) is the only concurrent entry point, giving each shard
// its own SigSet behind its own lock. Race-enabled builds enforce the
// contract with a cheap compare-and-swap assertion on every Add (see
// sigset_guard_race.go), so `go test -race` fails fast on a concurrent
// writer instead of corrupting a map.
//
// One set serves all three identities the kernels deduplicate on:
//
//   - plain edge sets (ESP history, BFT history): root == unrootedRef;
//   - (root, edge set) pairs (GAM/LESP rooted history): root == the root;
//   - single nodes (0-edge trees): root == the node, edges empty.
//
// Entries alias the edge slices of kept trees, which are immutable and
// never recycled, so no copy is taken.
//
// The first entry behind a signature lives directly in the map value
// (zero per-entry allocations on the overwhelmingly common no-collision
// path); genuine hash collisions spill into a lazily created overflow
// map.
type SigSet struct {
	first    map[uint64]treeRef
	overflow map[uint64][]treeRef // nil until the first collision
	guard    sigGuard             // single-writer assertion, race builds only
}

// treeRef is one collision-checked entry: the exact identity behind a
// signature.
type treeRef struct {
	root  graph.NodeID
	edges []graph.EdgeID
}

// unrootedRef marks entries keyed by edge set alone. Node IDs are dense
// and non-negative, so no real root collides with it.
const unrootedRef graph.NodeID = -1

// NewSigSet returns an empty set. The set is single-writer; see the
// type's concurrency contract.
func NewSigSet() *SigSet { return &SigSet{first: make(map[uint64]treeRef)} }

// is reports whether r is the identity (root, a ∪ b) for sorted, disjoint
// a and b: r.edges must be their merge-walk, which for an empty b is plain
// equality with a. Neither union nor copy is built.
func (r treeRef) is(root graph.NodeID, a, b []graph.EdgeID) bool {
	if r.root != root || len(r.edges) != len(a)+len(b) {
		return false
	}
	i, j := 0, 0
	for _, e := range r.edges {
		switch {
		case i < len(a) && a[i] == e:
			i++
		case j < len(b) && b[j] == e:
			j++
		default:
			return false
		}
	}
	return true
}

// Has reports whether the (root, edges) identity is present under sig. It
// must not race with Add (single-writer contract).
func (s *SigSet) Has(sig uint64, root graph.NodeID, edges []graph.EdgeID) bool {
	return s.HasUnion(sig, root, edges, nil)
}

// HasUnion is Has for the identity (root, a ∪ b) of a Merge candidate
// still unbuilt: a and b are its parents' edge lists.
func (s *SigSet) HasUnion(sig uint64, root graph.NodeID, a, b []graph.EdgeID) bool {
	r, ok := s.first[sig]
	if !ok {
		return false
	}
	if r.is(root, a, b) {
		return true
	}
	for _, r := range s.overflow[sig] {
		if r.is(root, a, b) {
			return true
		}
	}
	return false
}

// Add inserts the identity and reports whether it was absent. The edges
// slice is retained and must stay immutable. Single-writer: concurrent
// Adds are a caller bug, asserted under -race.
func (s *SigSet) Add(sig uint64, root graph.NodeID, edges []graph.EdgeID) bool {
	s.guard.enter()
	defer s.guard.exit()
	r, ok := s.first[sig]
	if !ok {
		s.first[sig] = treeRef{root: root, edges: edges}
		return true
	}
	if r.is(root, edges, nil) {
		return false
	}
	for _, r := range s.overflow[sig] {
		if r.is(root, edges, nil) {
			return false
		}
	}
	if s.overflow == nil {
		s.overflow = make(map[uint64][]treeRef)
	}
	s.overflow[sig] = append(s.overflow[sig], treeRef{root: root, edges: edges})
	return true
}

// treeIdentity returns the signature and collision-check identity of a
// result/candidate tree: 0-edge trees are identified by their single node,
// everything else by its edge set.
func treeIdentity(t *tree.Tree) (sig uint64, root graph.NodeID, edges []graph.EdgeID) {
	if t.Size() == 0 {
		return tree.NodeSig(t.Root), t.Root, nil
	}
	return t.Sig(), unrootedRef, t.Edges
}
