package core

import (
	"testing"
	"time"

	"ctpquery/internal/eql"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// LABEL: restricting the chain graph to label "a" leaves exactly one
// result (the all-a path) instead of 2^N.
func TestLabelFilter(t *testing.T) {
	w := gen.Chain(6)
	for _, alg := range []Algorithm{BFT, GAM, MoLESP} {
		rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{
			Algorithm: alg,
			Filters:   eql.Filters{Labels: []string{"a"}},
		})
		if rs.Len() != 1 {
			t.Fatalf("%v with LABEL a: %d results, want 1", alg, rs.Len())
		}
		for _, e := range rs.Results[0].Tree.Edges {
			if w.Graph.EdgeLabel(e) != "a" {
				t.Fatalf("%v: result contains edge with label %q", alg, w.Graph.EdgeLabel(e))
			}
		}
	}
	// A label absent from the graph yields no results.
	rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{
		Algorithm: MoLESP,
		Filters:   eql.Filters{Labels: []string{"zzz"}},
	})
	if rs.Len() != 0 {
		t.Fatalf("absent label: %d results", rs.Len())
	}
}

// MAX: the chain's results have sizes N..2N? No — every result of
// Chain(n) has exactly n edges (one parallel edge per gap), so MAX n-1
// removes everything and MAX n keeps all.
func TestMaxFilter(t *testing.T) {
	const n = 5
	w := gen.Chain(n)
	for _, alg := range []Algorithm{BFT, GAM, MoLESP} {
		rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{
			Algorithm: alg, Filters: eql.Filters{MaxEdges: n - 1}})
		if rs.Len() != 0 {
			t.Fatalf("%v MAX %d: %d results, want 0", alg, n-1, rs.Len())
		}
		rs2, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{
			Algorithm: alg, Filters: eql.Filters{MaxEdges: n}})
		if rs2.Len() != 1<<n {
			t.Fatalf("%v MAX %d: %d results, want %d", alg, n, rs2.Len(), 1<<n)
		}
	}
}

// LIMIT: stop after k results.
func TestLimitFilter(t *testing.T) {
	w := gen.Chain(6)
	for _, alg := range []Algorithm{BFT, GAM, MoLESP} {
		rs, st := run(t, w.Graph, Explicit(w.Seeds...), Options{
			Algorithm: alg, Filters: eql.Filters{Limit: 3}})
		if rs.Len() != 3 {
			t.Fatalf("%v LIMIT 3: %d results", alg, rs.Len())
		}
		if !st.Truncated {
			t.Fatalf("%v LIMIT: Truncated flag not set", alg)
		}
	}
}

// TIMEOUT: a zero-ish budget on a large chain must time out and report it.
func TestTimeoutFilter(t *testing.T) {
	w := gen.Chain(22) // 4M potential results: cannot finish in 1ns
	rs, st, err := Search(w.Graph, Explicit(w.Seeds...), Options{
		Algorithm: MoLESP, Filters: eql.Filters{Timeout: time.Nanosecond}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.TimedOut {
		t.Fatal("TimedOut flag not set")
	}
	if rs.Len() >= 1<<22 {
		t.Fatal("timeout did not truncate the search")
	}
}

// MaxTrees: the safety valve truncates runaway searches.
func TestMaxTreesTruncation(t *testing.T) {
	w := gen.Chain(14)
	_, st, err := Search(w.Graph, Explicit(w.Seeds...), Options{
		Algorithm: BFT, MaxTrees: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Truncated {
		t.Fatal("Truncated flag not set")
	}
	if st.Kept() > 101 {
		t.Fatalf("kept %d trees, want <= 101", st.Kept())
	}
}

// UNI on a forward-directed line: the root must reach both seeds along
// directed paths; on Line(2) the A end is such a root. With alternating
// edge directions no directed root exists.
func TestUniFilter(t *testing.T) {
	fw := gen.Line(2, 2, gen.Forward)
	for _, alg := range []Algorithm{BFT, GAM, ESP, MoLESP} {
		rs, _ := run(t, fw.Graph, Explicit(fw.Seeds...), Options{
			Algorithm: alg, Filters: eql.Filters{Uni: true}})
		if rs.Len() != 1 {
			t.Fatalf("%v UNI on forward line: %d results, want 1", alg, rs.Len())
		}
		if _, ok := tree.UnidirectionalRoot(fw.Graph, rs.Results[0].Tree.Edges); !ok {
			t.Fatalf("%v UNI result is not unidirectional", alg)
		}
	}

	alt := gen.Line(2, 2, gen.Alternate)
	for _, alg := range []Algorithm{BFT, GAM, MoLESP} {
		rs, _ := run(t, alt.Graph, Explicit(alt.Seeds...), Options{
			Algorithm: alg, Filters: eql.Filters{Uni: true}})
		if rs.Len() != 0 {
			t.Fatalf("%v UNI on alternating line: %d results, want 0", alg, rs.Len())
		}
		// Without UNI the result is back (bidirectional semantics, R3).
		rs2, _ := run(t, alt.Graph, Explicit(alt.Seeds...), Options{Algorithm: alg})
		if rs2.Len() != 1 {
			t.Fatalf("%v bidirectional on alternating line: %d results, want 1", alg, rs2.Len())
		}
	}
}

// UNI on a star directed away from the center: the center is the root.
func TestUniFilterStar(t *testing.T) {
	w := gen.Star(3, 1, gen.Forward) // center -> each seed
	for _, alg := range []Algorithm{GAM, LESP, MoLESP} {
		rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{
			Algorithm: alg, Filters: eql.Filters{Uni: true}})
		if rs.Len() != 1 {
			t.Fatalf("%v UNI on star: %d results, want 1", alg, rs.Len())
		}
		root, ok := tree.UnidirectionalRoot(w.Graph, rs.Results[0].Tree.Edges)
		if !ok {
			t.Fatalf("%v: no directed root", alg)
		}
		if lbl := w.Graph.NodeLabel(root); lbl != "center" {
			t.Fatalf("root = %q, want center", lbl)
		}
	}
}

// SCORE + TOP k: with the negative-size score, TOP 1 keeps a smallest
// result.
func TestScoreTopK(t *testing.T) {
	// Chain(3) has 8 results, all of size 3 — add a shortcut so sizes vary.
	b := graph.NewBuilder()
	a := b.AddNode("A")
	x := b.AddNode("x")
	c := b.AddNode("C")
	b.AddEdge(a, "t", x)
	b.AddEdge(x, "t", c)
	b.AddEdge(a, "s", c) // direct shortcut: 1-edge result
	g := b.Build()
	seeds := singletons(a, c)
	sizeScore := func(g *graph.Graph, t *tree.Tree) float64 { return -float64(t.Size()) }

	rs, _ := run(t, g, seeds, Options{
		Algorithm: MoLESP,
		Filters:   eql.Filters{TopK: 1, Score: "size"},
		Score:     sizeScore,
	})
	if rs.Len() != 1 {
		t.Fatalf("TOP 1: %d results", rs.Len())
	}
	if rs.Results[0].Tree.Size() != 1 {
		t.Fatalf("TOP 1 kept a %d-edge tree, want the 1-edge shortcut", rs.Results[0].Tree.Size())
	}
	if rs.Results[0].Score != -1 {
		t.Fatalf("score = %v, want -1", rs.Results[0].Score)
	}

	// Without TopK, scores are still annotated.
	rs2, _ := run(t, g, seeds, Options{Algorithm: MoLESP, Score: sizeScore})
	if rs2.Len() != 2 {
		t.Fatalf("full search: %d results, want 2", rs2.Len())
	}
	for _, r := range rs2.Results {
		if r.Score != -float64(r.Tree.Size()) {
			t.Fatalf("score %v inconsistent with size %d", r.Score, r.Tree.Size())
		}
	}
}

// Combined filters: LABEL + MAX + LIMIT compose.
func TestCombinedFilters(t *testing.T) {
	w := gen.Chain(8)
	rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{
		Algorithm: MoLESP,
		Filters: eql.Filters{
			Labels:   []string{"a", "b"},
			MaxEdges: 8,
			Limit:    5,
		},
	})
	if rs.Len() != 5 {
		t.Fatalf("combined filters: %d results, want 5", rs.Len())
	}
}

// Filters pushed into BFT prevent the blow-up: with MAX equal to the
// result size the baseline enumerates far fewer trees than without.
func TestMaxFilterPrunesSearchSpace(t *testing.T) {
	w := gen.Star(4, 2, gen.Forward)
	_, unbounded := run(t, w.Graph, Explicit(w.Seeds...), Options{Algorithm: BFTAM})
	_, bounded := run(t, w.Graph, Explicit(w.Seeds...), Options{
		Algorithm: BFTAM, Filters: eql.Filters{MaxEdges: w.Graph.NumEdges()}})
	if bounded.Created > unbounded.Created {
		t.Fatalf("MAX filter increased work: %d > %d", bounded.Created, unbounded.Created)
	}
}

// Seed tuples must bind each result to one node per seed set.
func TestSeedTuples(t *testing.T) {
	w := gen.Comb(2, 1, 2, 1, gen.Forward)
	rs, _ := run(t, w.Graph, Explicit(w.Seeds...), Options{Algorithm: MoLESP})
	if rs.Len() != 1 {
		t.Fatalf("results = %d", rs.Len())
	}
	r := rs.Results[0]
	if len(r.Seeds) != len(w.Seeds) {
		t.Fatalf("seed tuple has %d entries, want %d", len(r.Seeds), len(w.Seeds))
	}
	for i, s := range r.Seeds {
		if s != w.Seeds[i][0] {
			t.Fatalf("seed %d = %d, want %d", i, s, w.Seeds[i][0])
		}
	}
}

// The OnResult hook streams results as found and can stop the search.
func TestOnResultStreaming(t *testing.T) {
	w := gen.Chain(6)
	var streamed []Result
	rs, st, err := Search(w.Graph, Explicit(w.Seeds...), Options{
		Algorithm: MoLESP,
		OnResult: func(r Result) bool {
			streamed = append(streamed, r)
			return len(streamed) < 5
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 5 {
		t.Fatalf("streamed %d results, want 5", len(streamed))
	}
	if rs.Len() != 5 {
		t.Fatalf("result set has %d, want 5", rs.Len())
	}
	if !st.Truncated {
		t.Fatal("stop-via-hook must set Truncated")
	}
	// A pass-through hook must not change the outcome.
	count := 0
	rs2, _, err := Search(w.Graph, Explicit(w.Seeds...), Options{
		Algorithm: MoLESP,
		OnResult:  func(Result) bool { count++; return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != rs2.Len() || rs2.Len() != 64 {
		t.Fatalf("hook saw %d, result set %d, want 64", count, rs2.Len())
	}
}
