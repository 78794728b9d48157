// Package tree implements the rooted trees, edge sets, and provenances of
// Section 4: the objects that connection-search algorithms grow, merge, and
// prune. A Tree is an immutable set of graph edges forming a tree, plus one
// distinguished root node and the provenance formula (Init / Grow / Merge /
// Mo, Definition 4.1) that built it.
//
// Identity comes in two flavors, mirroring the paper:
//
//   - the edge-set key (EdgeKey) identifies the tree as a plain set of
//     edges, the notion Edge-Set Pruning (Definition 4.3) operates on;
//   - the rooted key (RootedKey) additionally distinguishes the root, the
//     notion plain GAM deduplicates on.
package tree

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ctpquery/internal/bitset"
	"ctpquery/internal/graph"
)

// Kind enumerates the provenance constructors of Definition 4.1, plus the
// Mo constructor of Section 4.5.
type Kind uint8

// Provenance kinds.
const (
	Init Kind = iota
	Grow
	Merge
	Mo
)

// String returns the constructor name.
func (k Kind) String() string {
	switch k {
	case Init:
		return "Init"
	case Grow:
		return "Grow"
	case Merge:
		return "Merge"
	case Mo:
		return "Mo"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Tree is a rooted tree with provenance. Trees are immutable after
// construction; Grow/Merge/Mo build new values sharing no mutable state.
type Tree struct {
	Root graph.NodeID

	// GrowEdge is the edge a Grow step added.
	GrowEdge graph.EdgeID

	// Kind is the provenance constructor. Left is the child of Grow and
	// Mo, and the first child of Merge; Right is the second child of Merge.
	Kind Kind

	// HasMo reports whether any step of the provenance is Mo; Grow is
	// disabled on such trees (Section 4.5).
	HasMo bool

	// SeedPath reports whether the tree is an (n,s)-rooted path in the
	// sense of Definition 4.4: a path from a single seed s to the root,
	// with no other seed on it. Init trees are 0-edge seed paths.
	SeedPath bool

	Edges []graph.EdgeID // sorted ascending, no duplicates
	Nodes []graph.NodeID // sorted ascending, no duplicates

	// Sat is sat(t): the bit for seed set i is on iff the tree contains a
	// node from S_i (Observation 1).
	Sat bitset.Bits

	Left, Right *Tree

	sig uint64 // cached edge-set signature (sig.go); 0 = not computed
}

// NewInit builds Init(n) on the heap, for hand-built trees; a search
// builds its own from its Arena.
func NewInit(n graph.NodeID, sat bitset.Bits) *Tree { return (*Arena)(nil).NewInit(n, sat) }

// NewInit builds Init(n) for a seed n whose seed-set memberships are sat.
func (a *Arena) NewInit(n graph.NodeID, sat bitset.Bits) *Tree {
	t, _, nodes, own := a.alloc(0, 1, len(sat))
	nodes[0] = n
	copy(own, sat)
	*t = Tree{Root: n, Nodes: nodes, Sat: own, Kind: Init, SeedPath: true, sig: SetSigBasis}
	return t
}

// NewGrow builds Grow(t, e): the tree with t's edges plus e, rooted at the
// endpoint of e opposite t's root. rootSat is the seed-set membership mask
// of the new root (empty for non-seeds). The caller must have checked the
// Grow preconditions (Grow1, Grow2); if the search rejects the tree as a
// duplicate, Release takes it back.
func (a *Arena) NewGrow(t *Tree, e graph.EdgeID, newRoot graph.NodeID, rootSat bitset.Bits) *Tree {
	// A non-seed root adds no sat bits: alias the parent's (immutable)
	// signature instead of copying it, the common case on large graphs.
	w := 0
	if !rootSat.IsEmpty() {
		w = max(len(t.Sat), len(rootSat))
	}
	g, edges, nodes, sat := a.alloc(len(t.Edges)+1, len(t.Nodes)+1, w)
	if w == 0 {
		sat = t.Sat
	} else {
		sat = bitset.UnionInto(sat, t.Sat, rootSat)
	}
	*g = Tree{
		Root:     newRoot,
		Edges:    InsertInto(edges, t.Edges, e),
		Nodes:    InsertInto(nodes, t.Nodes, newRoot),
		Sat:      sat,
		Kind:     Grow,
		Left:     t,
		GrowEdge: e,
		HasMo:    t.HasMo,
		SeedPath: t.SeedPath && w == 0,
		sig:      t.Sig() ^ EdgeSig(e),
	}
	return g
}

// NewMerge builds Merge(t1, t2) for trees sharing exactly their root. The
// caller must have checked the Merge preconditions (Merge1, Merge2), which
// imply edge-disjoint children — the premise of the O(1) signature merge
// and of the exact-size carve (the children's node sets share the root
// only).
func (a *Arena) NewMerge(t1, t2 *Tree) *Tree {
	m, edges, nodes, sat := a.alloc(len(t1.Edges)+len(t2.Edges), len(t1.Nodes)+len(t2.Nodes)-1, max(len(t1.Sat), len(t2.Sat)))
	*m = Tree{
		Root:  t1.Root,
		Edges: UnionInto(edges, t1.Edges, t2.Edges),
		Nodes: UnionInto(nodes, t1.Nodes, t2.Nodes),
		Sat:   bitset.UnionInto(sat, t1.Sat, t2.Sat),
		Kind:  Merge,
		Left:  t1,
		Right: t2,
		HasMo: t1.HasMo || t2.HasMo,
		sig:   MergeSigs(t1.Sig(), t2.Sig()),
	}
	return m
}

// NewMo builds Mo(t, r): the same edge set as t re-rooted at seed node r
// (Section 4.5). r must be a node of t distinct from its root. The slices
// are t's — immutable and safe to share — so a Mo tree carves only its
// struct.
func (a *Arena) NewMo(t *Tree, r graph.NodeID) *Tree {
	mo, _, _, _ := a.alloc(0, 0, 0)
	*mo = Tree{Root: r, Edges: t.Edges, Nodes: t.Nodes, Sat: t.Sat, Kind: Mo, Left: t, HasMo: true, sig: t.Sig()}
	return mo
}

// Detach returns a heap copy of t that shares nothing with its Arena:
// exact-size edge, node and sat slices and no provenance children. It is
// how a result leaves a search.
func (t *Tree) Detach() *Tree {
	d := *t
	d.Left, d.Right = nil, nil
	d.Edges = append(heapSlice[graph.EdgeID](len(t.Edges))[:0], t.Edges...)
	d.Nodes = append(heapSlice[graph.NodeID](len(t.Nodes))[:0], t.Nodes...)
	d.Sat = append(heapSlice[uint64](len(t.Sat))[:0], t.Sat...)
	return &d
}

// Size returns the number of edges.
func (t *Tree) Size() int { return len(t.Edges) }

// ContainsNode reports whether n is a node of t.
func (t *Tree) ContainsNode(n graph.NodeID) bool {
	_, ok := slices.BinarySearch(t.Nodes, n)
	return ok
}

// ContainsEdge reports whether e is an edge of t.
func (t *Tree) ContainsEdge(e graph.EdgeID) bool {
	_, ok := slices.BinarySearch(t.Edges, e)
	return ok
}

// OverlapOnlyRoot reports whether the node sets of t1 and t2 intersect in
// exactly their (shared) root — the Merge1 precondition. It assumes
// t1.Root == t2.Root.
func OverlapOnlyRoot(t1, t2 *Tree) bool {
	i, j := 0, 0
	common := 0
	for i < len(t1.Nodes) && j < len(t2.Nodes) {
		switch {
		case t1.Nodes[i] < t2.Nodes[j]:
			i++
		case t1.Nodes[i] > t2.Nodes[j]:
			j++
		default:
			if t1.Nodes[i] != t1.Root {
				return false
			}
			common++
			i++
			j++
		}
	}
	return common == 1
}

// EdgeKey returns a compact string identifying the edge set. Trees with
// equal edge sets return equal keys. The hot paths deduplicate on Sig
// instead; this string form remains for tests and diagnostics.
func (t *Tree) EdgeKey() string {
	if len(t.Edges) == 0 {
		return ""
	}
	return EdgeSetKey(t.Edges)
}

// RootedKey returns a key identifying (root, edge set) pairs.
func (t *Tree) RootedKey() string {
	var buf [4]byte
	putNode(&buf, t.Root)
	return string(buf[:]) + t.EdgeKey()
}

// EdgeSetKey encodes a sorted edge-ID slice as a map key.
func EdgeSetKey(edges []graph.EdgeID) string {
	var sb strings.Builder
	sb.Grow(4 * len(edges))
	var buf [4]byte
	for _, e := range edges {
		buf[0] = byte(e)
		buf[1] = byte(e >> 8)
		buf[2] = byte(e >> 16)
		buf[3] = byte(e >> 24)
		sb.Write(buf[:])
	}
	return sb.String()
}

func putNode(buf *[4]byte, n graph.NodeID) {
	buf[0] = byte(n)
	buf[1] = byte(n >> 8)
	buf[2] = byte(n >> 16)
	buf[3] = byte(n >> 24)
}

// ProvenanceString renders the provenance formula, e.g.
// Merge(Grow(Init(3),e7),Init(5)). Intended for tests and debugging.
func (t *Tree) ProvenanceString() string {
	var sb strings.Builder
	t.writeProv(&sb)
	return sb.String()
}

func (t *Tree) writeProv(sb *strings.Builder) {
	if t == nil {
		sb.WriteString("…") // a detached tree's children stayed in the search
		return
	}
	switch t.Kind {
	case Init:
		fmt.Fprintf(sb, "Init(%d)", t.Root)
	case Grow:
		sb.WriteString("Grow(")
		t.Left.writeProv(sb)
		fmt.Fprintf(sb, ",e%d)", t.GrowEdge)
	case Merge:
		sb.WriteString("Merge(")
		t.Left.writeProv(sb)
		sb.WriteString(",")
		t.Right.writeProv(sb)
		sb.WriteString(")")
	case Mo:
		sb.WriteString("Mo(")
		t.Left.writeProv(sb)
		fmt.Fprintf(sb, ",%d)", t.Root)
	}
}

// String renders the tree as root plus sorted edge IDs.
func (t *Tree) String() string {
	parts := make([]string, len(t.Edges))
	for i, e := range t.Edges {
		parts[i] = fmt.Sprintf("e%d", e)
	}
	return fmt.Sprintf("root=%d {%s}", t.Root, strings.Join(parts, ","))
}

// InsertInto writes the sorted s with x inserted in order into buf,
// reusing buf's backing array when its capacity suffices.
func InsertInto[T cmp.Ordered](buf, s []T, x T) []T {
	buf = slices.Grow(buf[:0], len(s)+1)[:len(s)+1]
	i, _ := slices.BinarySearch(s, x)
	copy(buf, s[:i])
	buf[i] = x
	copy(buf[i+1:], s[i:])
	return buf
}

// UnionInto merges two sorted slices into buf, reusing its backing array
// when possible and keeping one copy of an element both hold (for the
// node sets of Merge inputs, exactly the root; their edge sets are
// disjoint).
func UnionInto[T cmp.Ordered](buf, a, b []T) []T {
	buf = buf[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			buf = append(buf, a[i])
			i++
		case a[i] > b[j]:
			buf = append(buf, b[j])
			j++
		default:
			buf = append(buf, a[i])
			i++
			j++
		}
	}
	buf = append(buf, a[i:]...)
	return append(buf, b[j:]...)
}
