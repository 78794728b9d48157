package core

import (
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// SigSet is the deduplication history of a search: an open-addressed
// table keyed by 64-bit edge-set signatures (internal/tree/sig.go), each
// slot holding the exact identity behind the hash. A membership test is
// one probe plus one slice compare — no string key is ever built; two
// identities behind one signature simply sit in consecutive slots, the
// probe continuing past the one that does not match.
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
// writer instead of corrupting the table.
//
// One set serves all three identities the kernels deduplicate on:
//
//   - plain edge sets (ESP history, BFT history): root == unrootedRef;
//   - (root, edge set) pairs (GAM/LESP rooted history): root == the root;
//   - single nodes (0-edge trees): root == the node, edges empty.
//
// Entries alias the edge slices of kept trees, which are immutable and
// live in the search's arena as long as the set is in use, so no copy is
// taken. The zero value is an empty set; Reset empties one for reuse.
type SigSet struct {
	flatTable[sigSlot]
	guard sigGuard // single-writer assertion, race builds only
}

// sigSlot is one collision-checked entry: the exact identity behind a
// signature.
type sigSlot struct {
	sig   uint64
	root  graph.NodeID
	used  bool
	edges []graph.EdgeID
}

// unrootedRef marks entries keyed by edge set alone. Node IDs are dense
// and non-negative, so no real root collides with it.
const unrootedRef graph.NodeID = -1

// flatTable is the storage of both open-addressed tables, SigSet and
// nodeTable. The live table is a prefix of one of two backing arrays and
// grows by rehashing into a prefix twice as long of the other, which is
// all zero: everything outside the live table always is. So a search that
// follows another allocates nothing while its tables grow, a table is
// never larger than its own entries warrant — a small search stays in
// cache however large its predecessor was — and Reset clears only the
// live table. Backing arrays beyond maxTableSlots are dropped for the GC.
type flatTable[S any] struct {
	slots []S // len is a power of two, at most 3/4 in use
	spare []S
	n     int
}

const (
	minTableSlots = 16
	maxTableSlots = 1 << 15
)

// grow makes room for one more entry. When that takes a larger table it
// installs one, all zero, and returns the old for the caller to rehash
// from and then clear.
func (t *flatTable[S]) grow() []S {
	if 4*(t.n+1) <= 3*len(t.slots) {
		return nil
	}
	old, size := t.slots, max(2*len(t.slots), minTableSlots)
	if cap(t.spare) < size {
		t.spare = make([]S, size)
	}
	t.slots, t.spare = t.spare[:size], old
	return old
}

// Reset empties the table for the next search, at its smallest.
func (t *flatTable[S]) Reset() {
	clear(t.slots)
	if cap(t.slots) > maxTableSlots {
		t.slots = nil
	}
	if cap(t.spare) > maxTableSlots {
		t.spare = nil
	}
	t.slots, t.n = t.slots[:min(len(t.slots), minTableSlots)], 0
}

// is reports whether the slot holds the identity (sig, root, a ∪ b) for
// sorted, disjoint a and b: its edges must be their merge-walk, which for
// an empty b is plain equality with a. Neither union nor copy is built.
func (r *sigSlot) is(sig uint64, root graph.NodeID, a, b []graph.EdgeID) bool {
	if r.sig != sig || r.root != root || len(r.edges) != len(a)+len(b) {
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
	if len(s.slots) == 0 {
		return false
	}
	return s.probe(sig, root, a, b).used
}

// probe walks sig's probe sequence to the slot holding the identity, or
// to the free slot where it belongs.
func (s *SigSet) probe(sig uint64, root graph.NodeID, a, b []graph.EdgeID) *sigSlot {
	mask := len(s.slots) - 1
	for i := int(sig) & mask; ; i = (i + 1) & mask {
		if r := &s.slots[i]; !r.used || r.is(sig, root, a, b) {
			return r
		}
	}
}

// Add inserts the identity and reports whether it was absent. The edges
// slice is retained and must stay immutable. Single-writer: concurrent
// Adds are a caller bug, asserted under -race.
func (s *SigSet) Add(sig uint64, root graph.NodeID, edges []graph.EdgeID) bool {
	s.guard.enter()
	defer s.guard.exit()
	old := s.grow()
	for i := range old {
		if o := &old[i]; o.used {
			*s.probe(o.sig, o.root, o.edges, nil) = *o
		}
	}
	clear(old)
	r := s.probe(sig, root, edges, nil)
	if r.used {
		return false
	}
	*r = sigSlot{sig: sig, root: root, used: true, edges: edges}
	s.n++
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
