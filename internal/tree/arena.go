package tree

import (
	"ctpquery/internal/bitset"
	"ctpquery/internal/graph"
)

// A connection search keeps nearly every tree it builds (99.6% on the
// knowledge-graph workloads), so what costs is one heap object, and a
// share of a GC cycle, per kept tree. An Arena makes a tree a bump of four
// cursors instead. It lives exactly as long as one search: Reset takes
// everything back at once and the next search bumps through the same
// memory.
//
//   - Everything an Arena hands out dies at Reset. A tree that must
//     outlive the search — a reported result — is copied out with Detach
//     first; a search that failed never Resets (its state is dropped).
//   - Release un-bumps only the arena's latest tree, which is what a
//     candidate rejected straight after construction always is. Any other
//     tree (a Mo copy rejected on its owner's shard) stays until Reset.
//     GrowEdges carves an edge list with no tree; after it, Release of an
//     older tree is a no-op, and UndoEdges takes the list back.
//   - A nil *Arena allocates from the heap: hand-built trees (tests, the
//     BFT baselines' minimized results) need no arena.
type Arena struct {
	trees Slab[Tree]
	edges Slab[graph.EdgeID]
	nodes Slab[graph.NodeID]
	words Slab[uint64]

	// The latest tree and what was carved for it (a Mo tree or a Grow onto
	// a non-seed shares its parent's slices and carves less).
	last                *Tree
	lastE, lastN, lastW int
}

// What an Arena keeps across Reset, in elements per slab: about 3 MB,
// enough for a search keeping ~16k trees of ~8 edges. Chunks beyond are
// dropped for the GC, so one huge search does not stay resident.
const (
	keepTrees = 1 << 14
	keepIDs   = 1 << 17
	keepWords = 1 << 14
)

// Reset takes back everything the arena handed out.
func (a *Arena) Reset() {
	a.trees.Reset(keepTrees)
	a.edges.Reset(keepIDs)
	a.nodes.Reset(keepIDs)
	a.words.Reset(keepWords)
	a.last = nil
}

// Release un-bumps t if it is the arena's latest tree; the caller must
// hold the only reference to it.
func (a *Arena) Release(t *Tree) {
	if t != a.last {
		return
	}
	a.trees.undo(1)
	a.edges.undo(a.lastE)
	a.nodes.undo(a.lastN)
	a.words.undo(a.lastW)
	a.last = nil
}

// GrowEdges carves only the edge list of Grow(t, e): t's edges plus e,
// sorted. It is what the search keeps of a Grow candidate that no later
// step reads as a tree. The carve is not a tree, so Release, which would
// un-bump the edges of the latest tree, is a no-op until the next one.
func (a *Arena) GrowEdges(t *Tree, e graph.EdgeID) []graph.EdgeID {
	a.last = nil
	return InsertInto(a.edges.Alloc(len(t.Edges)+1), t.Edges, e)
}

// UndoEdges takes back edges, which must be the arena's latest GrowEdges
// carve with nothing carved since.
func (a *Arena) UndoEdges(edges []graph.EdgeID) { a.edges.undo(len(edges)) }

// alloc returns a zeroed Tree and exact-size buffers of e edges, n nodes
// and w sat words (nil for a zero count).
func (a *Arena) alloc(e, n, w int) (*Tree, []graph.EdgeID, []graph.NodeID, bitset.Bits) {
	if a == nil {
		return new(Tree), heapSlice[graph.EdgeID](e), heapSlice[graph.NodeID](n), heapSlice[uint64](w)
	}
	t := &a.trees.Alloc(1)[0]
	a.last, a.lastE, a.lastN, a.lastW = t, e, n, w
	return t, a.edges.Alloc(e), a.nodes.Alloc(n), a.words.Alloc(w)
}

// heapSlice is Slab.Alloc on the heap.
func heapSlice[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// Slab is a chunked bump allocator of T. Chunks double from slabMin to
// slabMax elements, so a small search on a fresh slab allocates little
// and a large one rarely; a chunk, once made, serves every later search
// until Reset drops it. The zero value is ready.
type Slab[T any] struct {
	chunks [][]T
	cur    int // chunk being carved
	off    int // elements carved from it
}

const (
	slabMin = 256
	slabMax = 1 << 14
)

// Alloc returns n zeroed elements with cap == len (nil for n == 0), so
// an append to the result never runs into a neighbour.
func (s *Slab[T]) Alloc(n int) []T {
	if n == 0 {
		return nil
	}
	if s.cur >= len(s.chunks) || s.off+n > len(s.chunks[s.cur]) {
		// Move on (the tail left behind is wasted), to the next retained
		// chunk if it has room for n.
		if s.cur < len(s.chunks) {
			s.cur++
		}
		s.off = 0
		if s.cur == len(s.chunks) {
			s.chunks = append(s.chunks, nil)
		}
		if len(s.chunks[s.cur]) < n {
			s.chunks[s.cur] = make([]T, max(n, min(slabMin<<min(s.cur, 6), slabMax)))
		}
	}
	s.off += n
	return s.chunks[s.cur][s.off-n : s.off : s.off]
}

// undo takes back the latest Alloc(n). Across a chunk boundary the cursor
// returns to the new chunk's start, which is where that Alloc began.
func (s *Slab[T]) undo(n int) {
	if n > 0 {
		clear(s.chunks[s.cur][s.off-n : s.off])
		s.off -= n
	}
}

// Reset takes back every element, zeroing what was handed out (a stale
// pointer must not pin a dropped chunk), and drops the chunks beyond the
// first keep elements.
func (s *Slab[T]) Reset(keep int) {
	kept := 0
	for i, c := range s.chunks {
		if i < s.cur {
			clear(c)
		} else if i == s.cur {
			clear(c[:s.off])
		}
		if keep -= len(c); keep >= 0 {
			kept = i + 1
		}
	}
	clear(s.chunks[kept:])
	s.chunks = s.chunks[:kept]
	s.cur, s.off = 0, 0
}
