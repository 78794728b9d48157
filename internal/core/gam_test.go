package core

import (
	"testing"

	"ctpquery/internal/eql"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// run is a test helper executing one search.
func run(t *testing.T, g *graph.Graph, seeds []SeedSet, opts Options) (*ResultSet, *Stats) {
	t.Helper()
	rs, st, err := Search(g, seeds, opts)
	if err != nil {
		t.Fatalf("%v: %v", opts.Algorithm, err)
	}
	return rs, st
}

func TestSearchValidation(t *testing.T) {
	g := gen.Sample()
	if _, _, err := Search(g, nil, Options{Algorithm: MoLESP}); err == nil {
		t.Fatal("no seed sets should error")
	}
	if _, _, err := Search(g, []SeedSet{{Universal: true}}, Options{Algorithm: MoLESP}); err == nil {
		t.Fatal("all-universal should error")
	}
	if _, _, err := Search(g, singletons(0), Options{Algorithm: Algorithm(42)}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	// An empty (non-universal) seed set yields an empty result, not an error.
	rs, _, err := Search(g, []SeedSet{{Nodes: nil}, {Nodes: []graph.NodeID{0}}}, Options{Algorithm: MoLESP})
	if err != nil || rs.Len() != 0 {
		t.Fatalf("empty seed set: rs=%v err=%v", rs.Len(), err)
	}
}

func TestAlgorithmString(t *testing.T) {
	if GAM.String() != "GAM" || MoLESP.String() != "MoLESP" || BFTM.String() != "BFT-M" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(99).String() != "Algorithm(99)" {
		t.Fatal("out-of-range name wrong")
	}
	if len(Algorithms()) != 8 || len(GAMFamily()) != 5 {
		t.Fatal("algorithm listings wrong")
	}
}

// The paper's running example (Figure 1): the CTP g1 over S1 = {Bob,
// Carole} (US entrepreneurs), S2 = {Alice, Doug} (French entrepreneurs),
// S3 = {Elon} must include the tree t_alpha = {e10, e9, e11} =
// Carole->OrgC<-Doug<-Elon, which exists only under bidirectional
// traversal.
func TestFigure1RunningExample(t *testing.T) {
	g := gen.Sample()
	bob, _ := g.NodeByLabel("Bob")
	carole, _ := g.NodeByLabel("Carole")
	alice, _ := g.NodeByLabel("Alice")
	doug, _ := g.NodeByLabel("Doug")
	elon, _ := g.NodeByLabel("Elon")
	seeds := Explicit(
		[]graph.NodeID{bob, carole},
		[]graph.NodeID{alice, doug},
		[]graph.NodeID{elon},
	)
	// Cap result size so the reference enumeration stays fast.
	opts := Options{Algorithm: MoLESP, Filters: eql.Filters{MaxEdges: 5}}
	rs, _ := run(t, g, seeds, opts)
	if rs.Len() == 0 {
		t.Fatal("no results on the running example")
	}

	// t_alpha: Carole -e10-> OrgC <-e9- Doug <-e11- Elon (paper edge
	// numbering is 1-based; our IDs are 0-based: e9, e8, e10).
	want := tree.EdgeSetKey([]graph.EdgeID{8, 9, 10})
	keys := resultKeys(rs)
	if !keys[want] {
		t.Fatalf("t_alpha not found; got %d results", rs.Len())
	}
	// Every result must be minimal and agree with the reference.
	ref := referenceResults(g, seeds, 5)
	for k := range keys {
		if !ref[k] {
			t.Fatalf("non-minimal or invalid result reported")
		}
	}
	for k := range ref {
		if !keys[k] {
			t.Fatalf("MoLESP missed a m=3 result (violates Property 8)")
		}
	}
	// The seed tuple of t_alpha must bind (Carole, Doug, Elon).
	for _, r := range rs.Results {
		if r.Tree.Size() == 3 && r.Tree.EdgeKey() == want {
			if r.Seeds[0] != carole || r.Seeds[1] != doug || r.Seeds[2] != elon {
				t.Fatalf("seed tuple = %v", r.Seeds)
			}
		}
	}
}

// Figure 3's graph: A-1-2-B-3-C. ESP misses the unique result under the
// smallest-first order (Section 4.4's incompleteness example), while
// GAM, MoESP, and MoLESP find it.
func TestFigure3ESPIncompleteness(t *testing.T) {
	w := gen.Line(3, 1, gen.Forward) // A -1- B -2- C with 2 edges per gap
	// gen.Line(3,1) gives A x B y C: exactly the Figure 3 shape.
	for _, alg := range []Algorithm{GAM, MoESP, MoLESP, BFT, BFTM, BFTAM} {
		rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{Algorithm: alg})
		if rs.Len() != 1 {
			t.Fatalf("%v found %d results on Line(3,1), want 1", alg, rs.Len())
		}
	}
	for _, alg := range []Algorithm{ESP, LESP} {
		rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{Algorithm: alg})
		if rs.Len() != 0 {
			t.Fatalf("%v found %d results on Line(3,1); the paper's Section 5.4.2 "+
				"reports edge-set pruning loses them under this order", alg, rs.Len())
		}
	}
}

// Figure 5's graph is Star(3, 2) (three 2-edge rays around a hub). Under
// the default smallest-first order every GAM variant finds the unique
// 3-simple result. Under a largest-tree-first (depth-first) order, each
// pairwise seed-to-seed through-path materializes as a Grow chain before
// any hub-rooted merge fires — so edge-set pruning discards every merge at
// the hub, reproducing the Section 4.5 incompleteness of ESP and MoESP;
// MoLESP's limited pruning (Section 4.6) spares the hub merges and finds
// the result under the same order, and GAM (no edge-set pruning) is
// unaffected.
func TestFigure5MoESPIncompleteness(t *testing.T) {
	w := gen.Star(3, 2, gen.Forward)
	g := w.Graph

	for _, alg := range GAMFamily() {
		rs, _ := run(t, g, Explicit(w.Seeds...), Options{Algorithm: alg})
		if rs.Len() != 1 {
			t.Fatalf("%v on Star(3,2), default order: %d results, want 1", alg, rs.Len())
		}
	}

	largestFirst := func(tr *tree.Tree, e graph.EdgeID) float64 {
		return -float64(tr.Size())
	}
	for _, alg := range []Algorithm{ESP, MoESP} {
		rs, _ := run(t, g, Explicit(w.Seeds...), Options{Algorithm: alg, Priority: largestFirst})
		if rs.Len() != 0 {
			t.Fatalf("%v under the adversarial order found %d results; expected a miss "+
				"mirroring the Section 4.5 trace", alg, rs.Len())
		}
	}
	rs2, st := run(t, g, Explicit(w.Seeds...), Options{Algorithm: MoLESP, Priority: largestFirst})
	if rs2.Len() != 1 {
		t.Fatalf("MoLESP under the adversarial order found %d results, want 1", rs2.Len())
	}
	if st.Spared == 0 {
		t.Fatal("the LESP exemption should have spared at least one merge tree")
	}
	rs3, _ := run(t, g, Explicit(w.Seeds...), Options{Algorithm: GAM, Priority: largestFirst})
	if rs3.Len() != 1 {
		t.Fatalf("GAM is order-independent (Property 1) but found %d results", rs3.Len())
	}
}

// GAM must not need result minimization: every reported tree is minimal
// by construction (Property 2).
func TestGAMResultsMinimal(t *testing.T) {
	g := gen.Sample()
	bob, _ := g.NodeByLabel("Bob")
	alice, _ := g.NodeByLabel("Alice")
	france, _ := g.NodeByLabel("France")
	seeds := singletons(bob, alice, france)
	rs, _ := run(t, g, seeds, Options{Algorithm: GAM, Filters: eql.Filters{MaxEdges: 5}})
	si := buildSeedIndex(seeds)
	for _, r := range rs.Results {
		if r.Tree.Size() == 0 {
			continue
		}
		for _, l := range tree.Leaves(g, r.Tree.Edges) {
			if !si.isSeed(l) {
				t.Fatalf("GAM reported non-minimal tree %v (leaf %d is not a seed)", r.Tree, l)
			}
		}
	}
}

// Single-node results: when one node belongs to every seed set, Init
// itself is a result (case (i) of Property 8's proof).
func TestSingleNodeResult(t *testing.T) {
	g := gen.Sample()
	alice, _ := g.NodeByLabel("Alice")
	seeds := Explicit([]graph.NodeID{alice}, []graph.NodeID{alice})
	for _, alg := range Algorithms() {
		rs, _ := run(t, g, seeds, Options{Algorithm: alg})
		found := false
		for _, r := range rs.Results {
			if r.Tree.Size() == 0 && r.Tree.Root == alice {
				found = true
			}
		}
		if !found {
			t.Fatalf("%v missed the single-node result", alg)
		}
	}
}

// Overlapping seed sets: a node in S1 and S2 plus a remote seed. Trees
// must never contain two distinct nodes of the same set.
func TestOverlappingSeedSets(t *testing.T) {
	w := gen.Line(2, 2, gen.Forward) // A -x-y- B
	g := w.Graph
	a, b := w.Seeds[0][0], w.Seeds[1][0]
	// S1 = {a}, S2 = {a, b}: results are the single node a (a matches
	// both) — and nothing else, because any tree containing both a and b
	// has two S2 nodes.
	seeds := Explicit([]graph.NodeID{a}, []graph.NodeID{a, b})
	for _, alg := range []Algorithm{BFT, GAM, MoLESP} {
		rs, _ := run(t, g, seeds, Options{Algorithm: alg})
		if rs.Len() != 1 || rs.Results[0].Tree.Size() != 0 {
			t.Fatalf("%v: expected exactly the single-node result, got %d", alg, rs.Len())
		}
	}
}

// The chain graph of Figure 2 has 2^N results for the 2-seed CTP; MoLESP
// finds all of them (they are path results, Property 5).
func TestFigure2ChainExponentialResults(t *testing.T) {
	const n = 6
	w := gen.Chain(n)
	for _, alg := range []Algorithm{BFT, GAM, ESP, MoESP, LESP, MoLESP} {
		rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{Algorithm: alg})
		if rs.Len() != 1<<n {
			t.Fatalf("%v found %d results on Chain(%d), want %d", alg, rs.Len(), n, 1<<n)
		}
	}
}

// Line and Comb workloads have exactly one result; Star too. MoLESP is
// guaranteed to find them (Property 9, as invoked in Section 5.3).
func TestSyntheticWorkloadsUniqueResult(t *testing.T) {
	workloads := []*gen.Workload{
		gen.Line(3, 2, gen.Forward),
		gen.Line(5, 1, gen.Alternate),
		gen.Comb(2, 2, 2, 2, gen.Forward),
		gen.Comb(3, 1, 2, 3, gen.Alternate),
		gen.Star(4, 2, gen.Forward),
		gen.Star(5, 1, gen.Alternate),
		gen.Star(8, 2, gen.Forward),
	}
	for _, w := range workloads {
		rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{Algorithm: MoLESP})
		if rs.Len() != 1 {
			t.Fatalf("%s: MoLESP found %d results, want 1", w.Name, rs.Len())
		}
		if got := rs.Results[0].Tree.Size(); got != w.Graph.NumEdges() {
			t.Fatalf("%s: result has %d edges, want the whole graph (%d)",
				w.Name, got, w.Graph.NumEdges())
		}
	}
}

// On Star graphs the unique result is an (m, center) rooted merge; LESP
// finds it under any order (Property 6 via Lemma 4.2).
func TestLESPStarRootedMerges(t *testing.T) {
	// Under the depth-first adversarial order the result is reachable only
	// through the pruning exemption, which must fire; the default order
	// reaches it without sparing.
	largestFirst := func(tr *tree.Tree, e graph.EdgeID) float64 {
		return -float64(tr.Size())
	}
	for _, m := range []int{3, 5, 8} {
		w := gen.Star(m, 2, gen.Forward)
		rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{Algorithm: LESP})
		if rs.Len() != 1 {
			t.Fatalf("LESP on Star(%d,2): %d results, want 1", m, rs.Len())
		}
		rs2, st := run(t, w.Graph, Explicit(w.Seeds...),
			Options{Algorithm: LESP, Priority: largestFirst})
		if rs2.Len() != 1 {
			t.Fatalf("LESP on Star(%d,2), adversarial order: %d results, want 1", m, rs2.Len())
		}
		if st.Spared == 0 {
			t.Fatalf("LESP on Star(%d,2), adversarial order: exemption never fired", m)
		}
	}
}

// Provenance counting: pruning must reduce kept provenances
// (ESP <= GAM), and the Mo variants add trees over their base variants
// (Figure 11's ordering).
func TestProvenanceCountOrdering(t *testing.T) {
	w := gen.Star(5, 2, gen.Forward)
	counts := map[Algorithm]int{}
	for _, alg := range GAMFamily() {
		_, st := run(t, w.Graph, Explicit(w.Seeds...), Options{Algorithm: alg})
		counts[alg] = st.Kept()
	}
	if counts[ESP] >= counts[GAM] {
		t.Fatalf("ESP kept %d provenances, GAM %d; pruning should reduce them",
			counts[ESP], counts[GAM])
	}
	if counts[MoESP] < counts[ESP] {
		t.Fatalf("MoESP kept %d < ESP %d; Mo injection adds trees", counts[MoESP], counts[ESP])
	}
	if counts[MoLESP] < counts[LESP] {
		t.Fatalf("MoLESP kept %d < LESP %d", counts[MoLESP], counts[LESP])
	}
}

// Runtime statistics must be populated.
func TestStatsPopulated(t *testing.T) {
	w := gen.Star(3, 2, gen.Forward)
	_, st := run(t, w.Graph, Explicit(w.Seeds...), Options{Algorithm: MoLESP})
	if st.Kept() == 0 || st.Created == 0 || st.QueuePops == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.Inits != 3 {
		t.Fatalf("inits = %d, want 3", st.Inits)
	}
	if st.Duration <= 0 {
		t.Fatal("duration not measured")
	}
	if st.Results != 1 {
		t.Fatalf("stats results = %d", st.Results)
	}
}
