package core

import (
	"slices"

	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// SigSet is the deduplication history of a search: an open-addressed
// table keyed by 64-bit edge-set signatures (internal/tree/sig.go) over a
// dense array of the exact identities behind them, one sigID per entry in
// entry order. A slot is 8 bytes: the signature's high 32 bits and the
// index of its sigID. A membership test probes slots and reads a sigID
// only where those 32 bits match, then compares its edge list — no
// string key is ever built; two identities behind one signature simply
// sit in consecutive slots, the probe continuing past the one that does
// not match.
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
// Entries alias the edge slices of kept trees (or of a leaf's edge list,
// see Kernel.Grow), which are immutable and live in the search's arena as
// long as the set is in use, so no copy is taken. The zero value is an
// empty set; Reset empties one for reuse.
type SigSet struct {
	flatTable
	ids   []sigID
	guard sigGuard // single-writer assertion, race builds only
}

// sigID is the exact identity behind a signature.
type sigID struct {
	sig   uint64
	root  graph.NodeID
	edges []graph.EdgeID
}

// unrootedRef marks entries keyed by edge set alone. Node IDs are dense
// and non-negative, so no real root collides with it.
const unrootedRef graph.NodeID = -1

// flatTable is the slot array of both open-addressed tables, SigSet and
// nodeTable: linear probing over 8-byte slots, at most 3/4 in use. Each
// entry has a record in its table's dense array, appended in entry order,
// and a slot holding a 32-bit key and ref, 1 + the record's index (0 is a
// free slot); a probe reads a record only when the key matches. A table
// grows by re-entering every record into a table twice as long, never
// scanning the old one, in the same backing array when that is long
// enough. So a search that follows another allocates nothing while its
// tables grow, a table is never larger than its own entries warrant — a
// small search stays in cache however large its predecessor was — and
// Reset clears only the live table. A new backing array is made four
// times as long as the table needs (up to maxTableSlots), and the record
// array is given room for all it can hold (fit), so a search that
// outgrows its predecessor's tables makes one slot and one record array
// every other doubling. Slot and record arrays beyond maxTableSlots are
// dropped for the GC.
type flatTable struct {
	slots []slot // len is a power of two, or 0
}

type slot struct{ key, ref uint32 }

const (
	minTableSlots = 16
	maxTableSlots = 1 << 15
)

// grow reports whether holding n entries takes a larger table. When it
// does, it installs one, all free, for the caller to refill from its
// records with put.
func (t *flatTable) grow(n int) bool {
	if 4*n <= 3*len(t.slots) {
		return false
	}
	size := max(2*len(t.slots), minTableSlots)
	if cap(t.slots) < size {
		t.slots = make([]slot, size, max(size, min(4*size, maxTableSlots)))
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	return true
}

// put enters key and ref in the first free slot from home on.
func (t *flatTable) put(home, key, ref uint32) {
	mask := uint32(len(t.slots) - 1)
	i := home & mask
	for t.slots[i].ref != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = slot{key, ref}
}

// Reset empties the table for the next search, at its smallest.
func (t *flatTable) Reset() {
	clear(t.slots)
	if cap(t.slots) > maxTableSlots {
		t.slots = nil
	}
	t.slots = t.slots[:min(len(t.slots), minTableSlots)]
}

// fit gives a table's record array room for as many entries as its slot
// array can take, so that records are moved only when slots are.
func fit[R any](recs []R, t *flatTable) []R {
	if n := 3 * cap(t.slots) / 4; cap(recs) < n {
		return slices.Grow(recs, n-len(recs))
	}
	return recs
}

// is reports whether the record is the identity (sig, root, a ∪ b) for
// sorted, disjoint a and b: its edges must be their merge-walk, which for
// an empty b is plain equality with a. Neither union nor copy is built.
func (r *sigID) is(sig uint64, root graph.NodeID, a, b []graph.EdgeID) bool {
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

// Reset empties the set for the next search.
func (s *SigSet) Reset() {
	s.flatTable.Reset()
	s.ids = emptiedUpTo(s.ids, maxTableSlots)
}

// Has reports whether the (root, edges) identity is present under sig. It
// must not race with Add (single-writer contract).
func (s *SigSet) Has(sig uint64, root graph.NodeID, edges []graph.EdgeID) bool {
	return s.HasUnion(sig, root, edges, nil)
}

// HasUnion is Has for the identity (root, a ∪ b) of a Merge candidate
// still unbuilt: a and b are its parents' edge lists.
func (s *SigSet) HasUnion(sig uint64, root graph.NodeID, a, b []graph.EdgeID) bool {
	_, ok := s.probe(sig, root, a, b)
	return ok
}

// probe walks sig's probe sequence to the slot of the identity, reporting
// true, or to the free slot where it belongs.
func (s *SigSet) probe(sig uint64, root graph.NodeID, a, b []graph.EdgeID) (uint32, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	mask, key := uint32(len(s.slots)-1), uint32(sig>>32)
	for i := uint32(sig) & mask; ; i = (i + 1) & mask {
		switch r := s.slots[i]; {
		case r.ref == 0:
			return i, false
		case r.key == key && s.ids[r.ref-1].is(sig, root, a, b):
			return i, true
		}
	}
}

// Add inserts the identity and reports whether it was absent. The edges
// slice is retained and must stay immutable. Single-writer: concurrent
// Adds are a caller bug, asserted under -race.
func (s *SigSet) Add(sig uint64, root graph.NodeID, edges []graph.EdgeID) bool {
	s.guard.enter()
	defer s.guard.exit()
	i, ok := s.probe(sig, root, edges, nil)
	if ok {
		return false
	}
	grew := s.grow(len(s.ids) + 1)
	s.ids = append(fit(s.ids, &s.flatTable), sigID{sig, root, edges})
	if !grew {
		s.slots[i] = slot{uint32(sig >> 32), uint32(len(s.ids))}
		return true
	}
	for j := range s.ids {
		id := &s.ids[j]
		s.put(uint32(id.sig), uint32(id.sig>>32), uint32(j+1))
	}
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
