package core

// Property tests for the sorted-slice primitives every kernel builds its
// trees with: tree.InsertInto and tree.UnionInto are checked against
// naive map-based references, and to reuse caller buffers without
// corrupting their inputs.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

func naiveUnion(a, b []graph.EdgeID) []graph.EdgeID {
	seen := map[graph.EdgeID]bool{}
	var out []graph.EdgeID
	for _, e := range a {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	for _, e := range b {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestUnionEdgesSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		a := randomEdgeSet(rng, 12, 30) // small ID range provokes overlap
		b := randomEdgeSet(rng, 12, 30)
		got := tree.UnionInto(make([]graph.EdgeID, 0, len(a)+len(b)), a, b)
		want := naiveUnion(a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("tree.UnionInto(%v, %v) = %v, want %v", a, b, got, want)
		}
		if cap(got) > len(a)+len(b) {
			t.Fatalf("union over-allocated: cap %d > %d", cap(got), len(a)+len(b))
		}
	}
}

func TestUnionNodesSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 3000; i++ {
		mkNodes := func(es []graph.EdgeID) []graph.NodeID {
			out := make([]graph.NodeID, len(es))
			for i, e := range es {
				out[i] = graph.NodeID(e)
			}
			return out
		}
		a := mkNodes(randomEdgeSet(rng, 12, 30))
		b := mkNodes(randomEdgeSet(rng, 12, 30))
		got := tree.UnionInto(nil, a, b)
		seen := map[graph.NodeID]bool{}
		var want []graph.NodeID
		for _, n := range append(append([]graph.NodeID{}, a...), b...) {
			if !seen[n] {
				seen[n] = true
				want = append(want, n)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("tree.UnionInto(%v, %v) = %v, want %v", a, b, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tree.UnionInto(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestInsertEdgeSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 3000; i++ {
		s := randomEdgeSet(rng, 12, 100)
		e := graph.EdgeID(rng.Intn(100))
		dup := false
		for _, x := range s {
			if x == e {
				dup = true
			}
		}
		if dup {
			continue // insert requires absence
		}
		got := tree.InsertInto(nil, s, e)
		want := naiveUnion(s, []graph.EdgeID{e})
		if !slices.Equal(got, want) {
			t.Fatalf("tree.InsertInto(%v, %v) = %v, want %v", s, e, got, want)
		}
	}
}

// The Into variants must reuse a caller buffer with sufficient capacity
// and must never modify their inputs.
func TestUnionIntoReusesBuffer(t *testing.T) {
	a := []graph.EdgeID{1, 3, 5}
	b := []graph.EdgeID{2, 3, 8}
	aCopy := append([]graph.EdgeID(nil), a...)
	bCopy := append([]graph.EdgeID(nil), b...)

	buf := make([]graph.EdgeID, 0, 16)
	got := tree.UnionInto(buf, a, b)
	if want := []graph.EdgeID{1, 2, 3, 5, 8}; !slices.Equal(got, want) {
		t.Fatalf("tree.UnionInto = %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("tree.UnionInto did not reuse the buffer")
	}
	if !slices.Equal(a, aCopy) || !slices.Equal(b, bCopy) {
		t.Fatal("inputs were modified")
	}

	ibuf := make([]graph.EdgeID, 0, 16)
	igot := tree.InsertInto(ibuf, a, 4)
	if want := []graph.EdgeID{1, 3, 4, 5}; !slices.Equal(igot, want) {
		t.Fatalf("tree.InsertInto = %v, want %v", igot, want)
	}
	if &igot[0] != &ibuf[:1][0] {
		t.Fatal("tree.InsertInto did not reuse the buffer")
	}
	if !slices.Equal(a, aCopy) {
		t.Fatal("input was modified")
	}
}
