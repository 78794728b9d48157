package tree

import (
	"slices"
	"testing"

	"ctpquery/internal/bitset"
	"ctpquery/internal/graph"
)

// ar is the arena the constructor tests build in.
var ar = new(Arena)

// pathGraph builds a directed path 0 -> 1 -> ... -> n with edges labeled
// "e"; returns the graph.
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder()
	b.AddNodes(n + 1)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), "e", graph.NodeID(i+1))
	}
	return b.Build()
}

// starGraph builds edges center->leaf_i for i in 1..k; node 0 is center.
func starGraph(k int) *graph.Graph {
	b := graph.NewBuilder()
	b.AddNodes(k + 1)
	for i := 1; i <= k; i++ {
		b.AddEdge(0, "e", graph.NodeID(i))
	}
	return b.Build()
}

func TestInitTree(t *testing.T) {
	it := NewInit(3, bitset.Single(1))
	if it.Root != 3 || it.Size() != 0 || !it.SeedPath || it.Kind != Init {
		t.Fatalf("bad init tree: %+v", it)
	}
	if !it.Sat.Has(1) || it.Sat.Count() != 1 {
		t.Fatalf("sat = %v", it.Sat)
	}
	if !it.ContainsNode(3) || it.ContainsNode(2) {
		t.Fatal("node membership wrong")
	}
}

func TestGrowChain(t *testing.T) {
	g := pathGraph(3) // 0-1-2-3
	t0 := NewInit(0, bitset.Single(0))
	t1 := ar.NewGrow(t0, 0, 1, nil)
	t2 := ar.NewGrow(t1, 1, 2, nil)
	t3 := ar.NewGrow(t2, 2, 3, bitset.Single(1))
	if t3.Size() != 3 || t3.Root != 3 {
		t.Fatalf("t3 = %v", t3)
	}
	if !t1.SeedPath || !t2.SeedPath {
		t.Fatal("grow over non-seeds should stay a seed path")
	}
	if t3.SeedPath {
		t.Fatal("growing onto a seed ends the (n,s)-rooted path property")
	}
	if !t3.Sat.Has(0) || !t3.Sat.Has(1) {
		t.Fatalf("sat = %v", t3.Sat)
	}
	for _, n := range []graph.NodeID{0, 1, 2, 3} {
		if !t3.ContainsNode(n) {
			t.Fatalf("missing node %d", n)
		}
	}
	if got := t3.ProvenanceString(); got != "Grow(Grow(Grow(Init(0),e0),e1),e2)" {
		t.Fatalf("provenance = %s", got)
	}
	_ = g
}

func TestMergeTrees(t *testing.T) {
	// star: 0 center, leaves 1,2; trees grown from 1 and 2 meeting at 0.
	g := starGraph(2)
	a := ar.NewGrow(NewInit(1, bitset.Single(0)), 0, 0, nil)
	b := ar.NewGrow(NewInit(2, bitset.Single(1)), 1, 0, nil)
	if !OverlapOnlyRoot(a, b) {
		t.Fatal("a and b overlap only at root 0")
	}
	m := ar.NewMerge(a, b)
	if m.Root != 0 || m.Size() != 2 {
		t.Fatalf("merge = %v", m)
	}
	if m.SeedPath {
		t.Fatal("merge is never a seed path")
	}
	if !m.Sat.Has(0) || !m.Sat.Has(1) {
		t.Fatalf("sat = %v", m.Sat)
	}
	if len(m.Nodes) != 3 {
		t.Fatalf("nodes = %v (root deduplicated?)", m.Nodes)
	}
	_ = g
}

func TestOverlapOnlyRootRejectsSharedNonRoot(t *testing.T) {
	// path 0-1-2-3; two trees rooted at 1 sharing node 2 beyond the root
	// must be rejected.
	a := &Tree{Root: 1, Nodes: []graph.NodeID{1, 2}, Edges: []graph.EdgeID{1}}
	b := &Tree{Root: 1, Nodes: []graph.NodeID{1, 2, 3}, Edges: []graph.EdgeID{1, 2}}
	if OverlapOnlyRoot(a, b) {
		t.Fatal("shared node 2 beyond root should be rejected")
	}
}

func TestMoTree(t *testing.T) {
	a := ar.NewGrow(NewInit(1, bitset.Single(0)), 0, 0, nil)
	b := ar.NewGrow(NewInit(2, bitset.Single(1)), 1, 0, nil)
	m := ar.NewMerge(a, b)
	mo := ar.NewMo(m, 1)
	if mo.Root != 1 || !mo.HasMo || mo.Kind != Mo {
		t.Fatalf("mo = %+v", mo)
	}
	if mo.EdgeKey() != m.EdgeKey() {
		t.Fatal("Mo must preserve the edge set")
	}
	if mo.RootedKey() == m.RootedKey() {
		t.Fatal("Mo must change the rooted key")
	}
	// HasMo propagates through Merge.
	c := ar.NewGrow(NewInit(3, bitset.Single(2)), 2, 1, nil)
	_ = c
	m2 := ar.NewMerge(mo, NewInit(1, bitset.Single(0)))
	if !m2.HasMo {
		t.Fatal("HasMo must propagate through Merge")
	}
}

func TestEdgeKeys(t *testing.T) {
	a := &Tree{Root: 5, Edges: []graph.EdgeID{1, 7, 300}}
	b := &Tree{Root: 9, Edges: []graph.EdgeID{1, 7, 300}}
	c := &Tree{Root: 5, Edges: []graph.EdgeID{1, 7, 301}}
	if a.EdgeKey() != b.EdgeKey() {
		t.Fatal("same edges, same key")
	}
	if a.EdgeKey() == c.EdgeKey() {
		t.Fatal("different edges, different key")
	}
	if a.RootedKey() == b.RootedKey() {
		t.Fatal("different roots, different rooted key")
	}
	empty := NewInit(2, nil)
	if empty.EdgeKey() != "" {
		t.Fatal("empty tree edge key should be empty string")
	}
	if empty.RootedKey() == NewInit(3, nil).RootedKey() {
		t.Fatal("rooted keys of distinct init trees must differ")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Init: "Init", Grow: "Grow", Merge: "Merge", Mo: "Mo", Kind(9): "Kind(9)"} {
		if k.String() != want {
			t.Fatalf("Kind(%d).String() = %s", k, k.String())
		}
	}
}

func TestIsTree(t *testing.T) {
	// Triangle 0-1, 1-2, 2-0: any two edges form a tree, all three a cycle.
	b := graph.NewBuilder()
	b.AddNodes(3)
	e0 := b.AddEdge(0, "e", 1)
	e1 := b.AddEdge(1, "e", 2)
	e2 := b.AddEdge(2, "e", 0)
	g := b.Build()
	if !IsTree(g, []graph.EdgeID{e0, e1}) {
		t.Fatal("two edges of a triangle form a tree")
	}
	if IsTree(g, []graph.EdgeID{e0, e1, e2}) {
		t.Fatal("a cycle is not a tree")
	}
	if !IsTree(g, nil) {
		t.Fatal("empty set treated as degenerate tree")
	}
}

func TestIsTreeDisconnected(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNodes(4)
	e0 := b.AddEdge(0, "e", 1)
	e1 := b.AddEdge(2, "e", 3)
	g := b.Build()
	if IsTree(g, []graph.EdgeID{e0, e1}) {
		t.Fatal("two disjoint edges are not a tree")
	}
}

func TestLeaves(t *testing.T) {
	g := starGraph(3)
	all := []graph.EdgeID{0, 1, 2}
	ls := Leaves(g, all)
	if len(ls) != 3 {
		t.Fatalf("leaves = %v, want the 3 star tips", ls)
	}
	for _, l := range ls {
		if l == 0 {
			t.Fatal("center must not be a leaf")
		}
	}
}

func TestMinimize(t *testing.T) {
	// Path 0-1-2-3-4; seeds {1,3}. Minimization should strip edges 0-1?? no:
	// strip 0-1 leaf side? Edges: e0=0-1, e1=1-2, e2=2-3, e3=3-4.
	g := pathGraph(4)
	isSeed := func(n graph.NodeID) bool { return n == 1 || n == 3 }
	min := Minimize(g, []graph.EdgeID{0, 1, 2, 3}, isSeed)
	if len(min) != 2 || min[0] != 1 || min[1] != 2 {
		t.Fatalf("minimize = %v, want [1 2]", min)
	}
	// Already-minimal input is unchanged.
	min2 := Minimize(g, []graph.EdgeID{1, 2}, isSeed)
	if len(min2) != 2 {
		t.Fatalf("minimal input modified: %v", min2)
	}
}

func TestMinimizeCascades(t *testing.T) {
	// Star with long bristle: center 0; leaves 1..3; extend leaf 3 by a
	// 2-edge tail (nodes 4,5). Seeds {1,2}: the whole tail and edge 0-3
	// must be peeled, in cascade.
	b := graph.NewBuilder()
	b.AddNodes(6)
	e01 := b.AddEdge(0, "e", 1)
	e02 := b.AddEdge(0, "e", 2)
	e03 := b.AddEdge(0, "e", 3)
	e34 := b.AddEdge(3, "e", 4)
	e45 := b.AddEdge(4, "e", 5)
	g := b.Build()
	isSeed := func(n graph.NodeID) bool { return n == 1 || n == 2 }
	min := Minimize(g, []graph.EdgeID{e01, e02, e03, e34, e45}, isSeed)
	if len(min) != 2 || min[0] != e01 || min[1] != e02 {
		t.Fatalf("minimize = %v, want [%d %d]", min, e01, e02)
	}
}

func TestDecompose(t *testing.T) {
	// Line A - x - B - y - C where A,B,C are seeds (nodes 0,2,4).
	g := pathGraph(4)
	isSeed := func(n graph.NodeID) bool { return n == 0 || n == 2 || n == 4 }
	pieces := Decompose(g, []graph.EdgeID{0, 1, 2, 3}, isSeed)
	if len(pieces) != 2 {
		t.Fatalf("pieces = %v, want 2 (split at internal seed)", pieces)
	}
	for _, p := range pieces {
		if len(p) != 2 {
			t.Fatalf("each piece should have 2 edges, got %v", p)
		}
		seeds := PieceLeafSeeds(g, p, isSeed)
		if len(seeds) != 2 {
			t.Fatalf("piece %v has seeds %v, want 2", p, seeds)
		}
	}
	if p := PiecewiseSimple(g, []graph.EdgeID{0, 1, 2, 3}, isSeed); p != 2 {
		t.Fatalf("piecewise-simple degree = %d, want 2 (a 2ps result)", p)
	}
}

func TestDecomposeStar(t *testing.T) {
	// Star with 3 seed tips: a single 3-simple piece.
	g := starGraph(3)
	isSeed := func(n graph.NodeID) bool { return n >= 1 }
	pieces := Decompose(g, []graph.EdgeID{0, 1, 2}, isSeed)
	if len(pieces) != 1 {
		t.Fatalf("pieces = %d, want 1", len(pieces))
	}
	if p := PiecewiseSimple(g, []graph.EdgeID{0, 1, 2}, isSeed); p != 3 {
		t.Fatalf("p = %d, want 3", p)
	}
}

func TestDecomposeEmpty(t *testing.T) {
	g := pathGraph(1)
	if Decompose(g, nil, func(graph.NodeID) bool { return false }) != nil {
		t.Fatal("empty edge set decomposes to nil")
	}
}

func TestUnidirectionalRoot(t *testing.T) {
	// 0 -> 1 -> 2 is rooted at 0.
	g := pathGraph(2)
	r, ok := UnidirectionalRoot(g, []graph.EdgeID{0, 1})
	if !ok || r != 0 {
		t.Fatalf("root = %d,%v want 0,true", r, ok)
	}
	// Opposing edges 0->1 <-2 have no directed root.
	b := graph.NewBuilder()
	b.AddNodes(3)
	b.AddEdge(0, "e", 1)
	b.AddEdge(2, "e", 1)
	g2 := b.Build()
	if _, ok := UnidirectionalRoot(g2, []graph.EdgeID{0, 1}); ok {
		t.Fatal("two sources cannot have a directed root")
	}
	// Star away from center is rooted at center.
	g3 := starGraph(3)
	r3, ok := UnidirectionalRoot(g3, []graph.EdgeID{0, 1, 2})
	if !ok || r3 != 0 {
		t.Fatalf("star root = %d,%v", r3, ok)
	}
	if _, ok := UnidirectionalRoot(g3, nil); ok {
		t.Fatal("empty edge set has no root")
	}
}

func TestNodesOfEdges(t *testing.T) {
	g := pathGraph(3)
	ns := NodesOfEdges(g, []graph.EdgeID{0, 2})
	want := []graph.NodeID{0, 1, 2, 3}
	if len(ns) != len(want) {
		t.Fatalf("nodes = %v", ns)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", ns, want)
		}
	}
}

func TestTreeStringRendering(t *testing.T) {
	tr := &Tree{Root: 4, Edges: []graph.EdgeID{2, 9}}
	if tr.String() != "root=4 {e2,e9}" {
		t.Fatalf("String = %q", tr.String())
	}
}

// A rejected candidate is its arena's latest carve: Release must hand the
// same memory to the next tree, and leave any other tree alone.
func TestArenaReleaseUnbumpsOnlyTheLatestTree(t *testing.T) {
	a := new(Arena)
	root := a.NewInit(0, bitset.Single(0))
	kept := a.NewGrow(root, 0, 1, nil)
	rejected := a.NewGrow(kept, 1, 2, bitset.Single(1))
	a.Release(kept) // not the latest: must stay
	if kept.Size() != 1 || kept.Left != root {
		t.Fatalf("releasing an older tree disturbed it: %+v", kept)
	}
	a.Release(rejected)
	next := a.NewGrow(kept, 5, 7, bitset.Single(1))
	if next != rejected || &next.Edges[0] != &rejected.Edges[0] {
		t.Fatal("the tree after a release must reuse the released carve")
	}
	if next.Size() != 2 || next.Root != 7 || !next.ContainsEdge(5) || !next.Sat.Has(1) {
		t.Fatalf("reused carve holds a wrong tree: %v", next)
	}
	// A Mo copy carves only its struct, a Grow onto a non-seed no sat:
	// releasing them must not take their parents' slices with them.
	mo := a.NewMo(next, 0)
	a.Release(mo)
	plain := a.NewGrow(next, 9, 8, nil)
	a.Release(plain)
	if !slices.Equal(next.Edges, []graph.EdgeID{0, 5}) || !next.Sat.Has(0) || !next.Sat.Has(1) {
		t.Fatalf("releasing a slice-sharing tree damaged its parent: %v sat=%v", next, next.Sat)
	}
}

// GrowEdges carves a leaf's edge list and nothing else. It is not a tree,
// so a Release of the tree carved before it must be a no-op — it would
// otherwise un-bump the leaf's edges — and UndoEdges takes the list back
// for the next carve, zeroed.
func TestArenaGrowEdgesSurvivesReleaseAndUndoes(t *testing.T) {
	a := new(Arena)
	root := a.NewInit(0, bitset.Single(0))
	older := a.NewGrow(root, 4, 1, nil)
	leaf := a.GrowEdges(older, 2)
	if !slices.Equal(leaf, []graph.EdgeID{2, 4}) || cap(leaf) != 2 {
		t.Fatalf("GrowEdges carved %v (cap %d), want [2 4]", leaf, cap(leaf))
	}
	a.Release(older)
	if !slices.Equal(older.Edges, []graph.EdgeID{4}) || !slices.Equal(older.Nodes, []graph.NodeID{0, 1}) || older.Left != root {
		t.Fatalf("Release after GrowEdges disturbed the older tree: %v", older)
	}
	if !slices.Equal(leaf, []graph.EdgeID{2, 4}) {
		t.Fatalf("Release after GrowEdges un-bumped the leaf's edges: %v", leaf)
	}
	if again := a.NewGrow(older, 7, 3, nil); &again.Edges[0] == &leaf[0] || again == older {
		t.Fatal("a tree carved after the leaf reused the leaf's or the older tree's memory")
	}
	undone := a.GrowEdges(older, 9)
	a.UndoEdges(undone)
	if undone[0] != 0 || undone[1] != 0 {
		t.Fatalf("UndoEdges left %v behind", undone)
	}
	if next := a.GrowEdges(older, 8); &next[0] != &undone[0] || !slices.Equal(next, []graph.EdgeID{4, 8}) {
		t.Fatalf("the carve after UndoEdges must reuse its memory: %v", next)
	}
	if !slices.Equal(leaf, []graph.EdgeID{2, 4}) || !slices.Equal(older.Edges, []graph.EdgeID{4}) {
		t.Fatal("UndoEdges took back more than the latest edge list")
	}
}

// Reset takes everything back and the next search reuses the memory,
// zeroed; trees larger than a chunk and runs across chunk boundaries are
// carved exactly like any other.
func TestArenaResetReusesAndSlabCrossesChunks(t *testing.T) {
	a := new(Arena)
	first := a.NewInit(0, nil)
	cur := first
	for i := 1; i <= 3*slabMin; i++ { // a path: tree i has i edges, so the ID slabs cross many chunks
		cur = a.NewGrow(cur, graph.EdgeID(i), graph.NodeID(i), nil)
		if cur.Size() != i || len(cur.Nodes) != i+1 || cap(cur.Edges) != i {
			t.Fatalf("tree %d: %d edges (cap %d), %d nodes", i, cur.Size(), cap(cur.Edges), len(cur.Nodes))
		}
	}
	for n := cur; n.Kind == Grow; n = n.Left { // earlier carves were not overwritten by later ones
		if n.Edges[len(n.Edges)-1] != n.GrowEdge || !slices.IsSorted(n.Edges) {
			t.Fatalf("tree of %d edges corrupted: %v", n.Size(), n.Edges)
		}
	}
	a.Reset()
	if again := a.NewInit(9, nil); again != first {
		t.Fatal("a reset arena must start over in its first chunk")
	}
	if s := &a.trees; len(s.chunks) == 0 || s.chunks[0][1].Left != nil || s.chunks[0][1].Edges != nil {
		t.Fatal("reset left stale trees behind")
	}
	var s Slab[int32]
	s.Alloc(slabMin)
	big := s.Alloc(4 * slabMax)
	s.Reset(slabMin)
	if len(big) != 4*slabMax || len(s.chunks) != 1 {
		t.Fatalf("an oversized chunk must serve its request and be dropped at Reset: %d chunks kept", len(s.chunks))
	}
}

// Detach is how a result leaves a search: nothing of the copy may point
// into the arena or at the provenance.
func TestDetachSharesNothing(t *testing.T) {
	a := new(Arena)
	m := a.NewMerge(a.NewGrow(a.NewInit(1, bitset.Single(0)), 0, 0, nil), a.NewGrow(a.NewInit(2, bitset.Single(1)), 1, 0, nil))
	d := m.Detach()
	if d.Left != nil || d.Right != nil || cap(d.Edges) != len(d.Edges) || cap(d.Nodes) != len(d.Nodes) || cap(d.Sat) != len(d.Sat) {
		t.Fatalf("detached tree keeps provenance or slack: %+v", d)
	}
	if d.EdgeKey() != m.EdgeKey() || d.Root != m.Root || !d.Sat.Equal(m.Sat) || d.Sig() != m.Sig() {
		t.Fatal("detached tree differs from its original")
	}
	a.Reset()
	a.NewGrow(a.NewInit(5, nil), 7, 6, nil)
	if !slices.Equal(d.Edges, []graph.EdgeID{0, 1}) || !slices.Equal(d.Nodes, []graph.NodeID{0, 1, 2}) {
		t.Fatalf("detached tree changed when its arena was reused: %v", d)
	}
	if got := d.ProvenanceString(); got != "Merge(…,…)" {
		t.Fatalf("provenance of a detached tree = %s", got)
	}
}
