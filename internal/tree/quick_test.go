package tree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

// Property-based tests (testing/quick) over the tree-manipulation
// primitives the search algorithms depend on.

// Property: the sorted-insert and sorted-union helpers used by Grow and
// Merge agree with naive set arithmetic.
func TestQuickSortedOps(t *testing.T) {
	f := func(raw []uint16, extra uint16) bool {
		// Build a sorted, deduplicated base slice.
		seen := map[graph.EdgeID]bool{}
		var base []graph.EdgeID
		for _, v := range raw {
			e := graph.EdgeID(v)
			if !seen[e] {
				seen[e] = true
				base = append(base, e)
			}
		}
		sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })

		e := graph.EdgeID(extra)
		if seen[e] {
			return true // insert requires absence; skip
		}
		got := InsertInto(nil, base, e)
		if len(got) != len(base)+1 {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				return false
			}
		}
		has := false
		for _, x := range got {
			if x == e {
				has = true
			}
		}
		return has
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: unionSortedNodes returns the sorted union without duplicates.
func TestQuickUnionNodes(t *testing.T) {
	f := func(a, b []uint8) bool {
		mk := func(vs []uint8) []graph.NodeID {
			seen := map[graph.NodeID]bool{}
			var out []graph.NodeID
			for _, v := range vs {
				n := graph.NodeID(v)
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
		sa, sb := mk(a), mk(b)
		got := UnionInto(nil, sa, sb)
		want := map[graph.NodeID]bool{}
		for _, n := range sa {
			want[n] = true
		}
		for _, n := range sb {
			want[n] = true
		}
		if len(got) != len(want) {
			return false
		}
		for i, n := range got {
			if !want[n] {
				return false
			}
			if i > 0 && got[i-1] >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Minimize is idempotent, only removes edges, and leaves no
// removable (non-seed) leaves, on random subtrees of random graphs.
func TestQuickMinimizeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		g := gen.Random(12, 16, nil, rng)
		edges := randomSubtree(g, rng, 1+rng.Intn(8))
		// Random seed choice among the subtree's nodes.
		nodes := NodesOfEdges(g, edges)
		seedSet := map[graph.NodeID]bool{}
		for _, n := range nodes {
			if rng.Intn(3) == 0 {
				seedSet[n] = true
			}
		}
		isSeed := func(n graph.NodeID) bool { return seedSet[n] }

		min1 := Minimize(g, edges, isSeed)
		min2 := Minimize(g, min1, isSeed)
		if EdgeSetKey(min1) != EdgeSetKey(min2) {
			t.Fatalf("trial %d: Minimize not idempotent", trial)
		}
		if len(min1) > len(edges) {
			t.Fatalf("trial %d: Minimize grew the set", trial)
		}
		for _, l := range Leaves(g, min1) {
			if !isSeed(l) {
				t.Fatalf("trial %d: minimized tree has non-seed leaf %d", trial, l)
			}
		}
		if len(min1) > 0 && !IsTree(g, min1) {
			t.Fatalf("trial %d: minimized set is not a tree", trial)
		}
	}
}

// Property: Decompose partitions the edges, and each piece is connected
// with all piece-internal non-leaf nodes non-seeds.
func TestQuickDecomposeInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 60; trial++ {
		g := gen.Random(12, 15, nil, rng)
		edges := randomSubtree(g, rng, 2+rng.Intn(7))
		nodes := NodesOfEdges(g, edges)
		seedSet := map[graph.NodeID]bool{}
		for _, n := range nodes {
			if rng.Intn(3) == 0 {
				seedSet[n] = true
			}
		}
		isSeed := func(n graph.NodeID) bool { return seedSet[n] }

		pieces := Decompose(g, edges, isSeed)
		count := 0
		seenEdge := map[graph.EdgeID]bool{}
		for _, p := range pieces {
			count += len(p)
			if !IsTree(g, p) {
				t.Fatalf("trial %d: piece is not a tree", trial)
			}
			for _, e := range p {
				if seenEdge[e] {
					t.Fatalf("trial %d: edge %d in two pieces", trial, e)
				}
				seenEdge[e] = true
			}
		}
		if count != len(edges) {
			t.Fatalf("trial %d: decomposition covers %d of %d edges", trial, count, len(edges))
		}
	}
}

// randomSubtree grows a random connected acyclic edge set.
func randomSubtree(g *graph.Graph, rng *rand.Rand, size int) []graph.EdgeID {
	start := graph.NodeID(rng.Intn(g.NumNodes()))
	inNodes := map[graph.NodeID]bool{start: true}
	var edges []graph.EdgeID
	for len(edges) < size {
		// Collect frontier edges that extend the tree.
		var frontier []graph.EdgeID
		for n := range inNodes {
			for _, e := range g.Incident(n) {
				if !inNodes[g.Other(e, n)] {
					frontier = append(frontier, e)
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
		e := frontier[rng.Intn(len(frontier))]
		ed := g.Edge(e)
		inNodes[ed.Source] = true
		inNodes[ed.Target] = true
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	return edges
}
