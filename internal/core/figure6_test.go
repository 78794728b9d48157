package core

import (
	"testing"

	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// figure6 builds the Section 4.6 incompleteness example for 4 seed sets:
//
//	A-1-2(-B)-x-3(-C)-4-D
//
// Its unique result is the whole 8-edge tree: 4-simple (all four seeds
// are leaves of one decomposition piece) but NOT a (u,n) rooted merge —
// the A and B paths share edge 2-x, the C and D paths share x-3 — so
// neither Property 6 nor Property 9 guarantees it.
func figure6() (*graph.Graph, []SeedSet) {
	b := graph.NewBuilder()
	A := b.AddNode("A")
	n1 := b.AddNode("1")
	n2 := b.AddNode("2")
	B := b.AddNode("B")
	x := b.AddNode("x")
	n3 := b.AddNode("3")
	C := b.AddNode("C")
	n4 := b.AddNode("4")
	D := b.AddNode("D")
	b.AddEdge(A, "t", n1)
	b.AddEdge(n1, "t", n2)
	b.AddEdge(B, "t", n2)
	b.AddEdge(n2, "t", x)
	b.AddEdge(x, "t", n3)
	b.AddEdge(n3, "t", C)
	b.AddEdge(n3, "t", n4)
	b.AddEdge(n4, "t", D)
	return b.Build(), singletons(A, B, C, D)
}

// Figure 6: LESP (and MoLESP) may miss non-rooted-merge results at m >= 4
// under adversarial orders, while GAM never does.
func TestFigure6LESPIncompleteness(t *testing.T) {
	g, seeds := figure6()

	// GAM is complete under every order (Property 1).
	for s := int64(0); s < 20; s++ {
		var order PriorityFunc
		if s > 0 {
			order = randomPriority(s)
		}
		rs, _ := run(t, g, seeds, Options{Algorithm: GAM, Priority: order})
		if rs.Len() != 1 {
			t.Fatalf("GAM (order %d): %d results, want 1", s, rs.Len())
		}
		if rs.Results[0].Tree.Size() != 8 {
			t.Fatalf("GAM result has %d edges, want 8", rs.Results[0].Tree.Size())
		}
	}

	// LESP and MoLESP find the result under the paper's default
	// (smallest-first) order...
	for _, alg := range []Algorithm{LESP, MoLESP} {
		rs, _ := run(t, g, seeds, Options{Algorithm: alg})
		if rs.Len() != 1 {
			t.Fatalf("%v (default order): %d results, want 1", alg, rs.Len())
		}
	}

	// ...but some execution orders lose it (the Section 4.6 trace): among
	// seeded random orders, at least one must miss, and every run must
	// stay sound (only the true result, never a wrong tree).
	lespMissed := false
	for s := int64(0); s < 50; s++ {
		rs, _ := run(t, g, seeds, Options{Algorithm: LESP, Priority: randomPriority(s)})
		switch rs.Len() {
		case 0:
			lespMissed = true
		case 1:
			if rs.Results[0].Tree.Size() != 8 {
				t.Fatalf("LESP (order %d) reported a wrong tree", s)
			}
		default:
			t.Fatalf("LESP (order %d): %d results on a 1-result instance", s, rs.Len())
		}
	}
	if !lespMissed {
		t.Fatal("no tested order exhibited the Figure 6 LESP incompleteness; " +
			"the Section 4.6 example should lose under some orders")
	}

	// The shape check: the unique result is 4-piecewise-simple.
	edges := make([]graph.EdgeID, g.NumEdges())
	for i := range edges {
		edges[i] = graph.EdgeID(i)
	}
	si := buildSeedIndex(seeds)
	if p := tree.PiecewiseSimple(g, edges, si.isSeed); p != 4 {
		t.Fatalf("piecewise-simple degree = %d, want 4", p)
	}
}
