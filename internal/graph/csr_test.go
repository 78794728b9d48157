package graph_test

// Golden tests for the CSR freeze path: the flat-array adjacency and
// label/type indexes must return exactly the edge and node sets the seed
// slice-of-slices implementation produced. The reference here is rebuilt
// naively from the edge list (the layout-independent ground truth), and
// the comparison is order-insensitive, on the Figure 6 graph and on
// randomly generated graphs from internal/gen.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

// figure6Graph rebuilds the Section 4.6 reference graph A-1-2(-B)-x-3(-C)-4-D.
func figure6Graph() *graph.Graph {
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
	return b.Build()
}

// naiveAdjacency recomputes out/in/adj per node straight from the edge
// list, the way the pre-CSR implementation built its slice-of-slices.
func naiveAdjacency(g *graph.Graph) (out, in, adj map[graph.NodeID][]graph.EdgeID) {
	out = map[graph.NodeID][]graph.EdgeID{}
	in = map[graph.NodeID][]graph.EdgeID{}
	adj = map[graph.NodeID][]graph.EdgeID{}
	for i := 0; i < g.NumEdges(); i++ {
		e := graph.EdgeID(i)
		ed := g.Edge(e)
		out[ed.Source] = append(out[ed.Source], e)
		in[ed.Target] = append(in[ed.Target], e)
		adj[ed.Source] = append(adj[ed.Source], e)
		if ed.Target != ed.Source {
			adj[ed.Target] = append(adj[ed.Target], e)
		}
	}
	return out, in, adj
}

func sortedEdges(s []graph.EdgeID) []graph.EdgeID {
	out := append([]graph.EdgeID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedNodes(s []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalEdgeSets(a, b []graph.EdgeID) bool {
	a, b = sortedEdges(a), sortedEdges(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func checkCSRAgainstNaive(t *testing.T, g *graph.Graph) {
	t.Helper()
	out, in, adj := naiveAdjacency(g)
	for i := 0; i < g.NumNodes(); i++ {
		n := graph.NodeID(i)
		if !equalEdgeSets(g.OutEdges(n), out[n]) {
			t.Fatalf("OutEdges(%d) = %v, want set %v", n, g.OutEdges(n), out[n])
		}
		if !equalEdgeSets(g.InEdges(n), in[n]) {
			t.Fatalf("InEdges(%d) = %v, want set %v", n, g.InEdges(n), in[n])
		}
		if !equalEdgeSets(g.IncidentEdges(n), adj[n]) {
			t.Fatalf("IncidentEdges(%d) = %v, want set %v", n, g.IncidentEdges(n), adj[n])
		}
		if g.Degree(n) != len(adj[n]) {
			t.Fatalf("Degree(%d) = %d, want %d", n, g.Degree(n), len(adj[n]))
		}
	}

	// Label indexes against a naive scan.
	nodesByLabel := map[graph.LabelID][]graph.NodeID{}
	for i := 0; i < g.NumNodes(); i++ {
		if l := g.NodeLabelID(graph.NodeID(i)); l != graph.NoLabel {
			nodesByLabel[l] = append(nodesByLabel[l], graph.NodeID(i))
		}
	}
	edgesByLabel := map[graph.LabelID][]graph.EdgeID{}
	for i := 0; i < g.NumEdges(); i++ {
		edgesByLabel[g.EdgeLabelID(graph.EdgeID(i))] = append(
			edgesByLabel[g.EdgeLabelID(graph.EdgeID(i))], graph.EdgeID(i))
	}
	for l := graph.LabelID(0); int(l) < g.Labels().Len(); l++ {
		got := sortedNodes(g.NodesWithLabel(l))
		want := sortedNodes(nodesByLabel[l])
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("NodesWithLabel(%d) = %v, want %v", l, got, want)
		}
		if !equalEdgeSets(g.EdgesWithLabel(l), edgesByLabel[l]) {
			t.Fatalf("EdgesWithLabel(%d) = %v, want set %v", l, g.EdgesWithLabel(l), edgesByLabel[l])
		}
	}
}

func TestCSRGoldenFigure6(t *testing.T) {
	checkCSRAgainstNaive(t, figure6Graph())
}

func TestCSRGoldenSample(t *testing.T) {
	checkCSRAgainstNaive(t, gen.Sample())
}

func TestCSRGoldenRandomGraphs(t *testing.T) {
	labels := []string{"", "knows", "cites", "funds"}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		e := n + rng.Intn(4*n) // connected base + extras, incl. parallels/self-loops
		g := gen.Random(n, e, labels, rng)
		checkCSRAgainstNaive(t, g)
	}
}

// TestCSRGoldenWorkloads covers the synthetic Figure 10/11 topologies.
func TestCSRGoldenWorkloads(t *testing.T) {
	for _, w := range []*gen.Workload{
		gen.Line(3, 3, gen.Alternate),
		gen.Comb(4, 2, 3, 2, gen.Alternate),
		gen.Star(5, 3, gen.Alternate),
		gen.Chain(8),
	} {
		checkCSRAgainstNaive(t, w.Graph)
	}
}

// TestCSRGoldenConcurrentFreeze covers the freeze's concurrent schedule,
// which only graphs of graph.ConcurrentFreezeEdges edges or more take.
func TestCSRGoldenConcurrentFreeze(t *testing.T) {
	g := gen.YAGOLike(12000, 1).Graph
	if g.NumEdges() < graph.ConcurrentFreezeEdges {
		t.Fatalf("%d edges: the freeze ran sequentially", g.NumEdges())
	}
	checkCSRAgainstNaive(t, g)
}

// BenchmarkCSRExpansion measures the adjacency-expansion pattern of the
// search hot loop: touch every incident edge of every node. The CSR
// accessors must not allocate.
func BenchmarkCSRExpansion(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := gen.Random(5000, 20000, []string{"knows", "cites", "funds", "worksFor"}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for n := 0; n < g.NumNodes(); n++ {
			for _, e := range g.IncidentEdges(graph.NodeID(n)) {
				sum += int64(e)
			}
		}
	}
	if sum == 42 {
		b.Log("unlikely") // keep the loop from being optimized away
	}
}

// BenchmarkCSRLabelScan measures the label-index scan (seed-set
// derivation path).
func BenchmarkCSRLabelScan(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := gen.Random(5000, 20000, []string{"knows", "cites", "funds", "worksFor"}, rng)
	l, ok := g.LabelIDOf("knows")
	if !ok {
		b.Fatal("label missing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum int64
	for i := 0; i < b.N; i++ {
		for _, e := range g.EdgesWithLabel(l) {
			sum += int64(e)
		}
	}
	_ = sum
}
