package bgp

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ctpquery/internal/eql"
	"ctpquery/internal/graph"
	"ctpquery/internal/storage"
)

// Differential tests: Evaluate against referenceEvaluate (bgp_test.go) on
// random graphs and random BGPs, frozen and live. Tables are compared as
// sorted row lists under sorted column names; the reference's rows are
// distinct, so equality also shows Evaluate emits no duplicate.

var (
	propEdgeLabels = []string{"a", "b", "c", ""}
	propTypes      = []string{"T0", "T1", "T2"}
)

// canonical renders a table independent of column and row order.
func canonical(t *storage.Table) string {
	cols := append([]string(nil), t.Cols()...)
	slices.Sort(cols)
	rows := make([]string, t.NumRows())
	for i := range rows {
		var sb strings.Builder
		for _, c := range cols {
			fmt.Fprintf(&sb, "%d,", t.Row(i)[t.Column(c)])
		}
		rows[i] = sb.String()
	}
	slices.Sort(rows)
	return strings.Join(cols, ",") + "\n" + strings.Join(rows, "\n")
}

// checkAgainstReference evaluates b both ways over g and fails on any
// difference.
func checkAgainstReference(t *testing.T, g *graph.Graph, b eql.BGP, what string) Stats {
	t.Helper()
	want, err := referenceEvaluate(g, b)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	got, st, err := EvaluateContext(context.Background(), g, b)
	if err != nil {
		t.Fatalf("%s: Evaluate: %v", what, err)
	}
	if w, h := canonical(want), canonical(got); w != h {
		steps, _ := Plan(g, b)
		t.Fatalf("%s: BGP %s\nplan %+v\nwant %d rows:\n%s\ngot %d rows:\n%s",
			what, describeBGP(b), steps, want.NumRows(), w, got.NumRows(), h)
	}
	return st
}

func describeBGP(b eql.BGP) string {
	var sb strings.Builder
	term := func(p eql.Predicate) {
		if p.Var != "" {
			sb.WriteString("?" + p.Var)
		}
		sb.WriteString("[")
		for _, c := range p.Conds {
			fmt.Fprintf(&sb, "%s%s%q ", c.Prop, c.Op, c.Value)
		}
		sb.WriteString("] ")
	}
	for _, ep := range b.Patterns {
		term(ep.Src)
		term(ep.Edge)
		term(ep.Dst)
		sb.WriteString(". ")
	}
	return sb.String()
}

// randGraph builds a graph of n uniquely labeled nodes "n<i>" (the live
// tests address nodes by label), random types, and m random edges that
// include self-loops and parallel edges.
func randGraph(r *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		id := b.AddNode(fmt.Sprintf("n%d", i))
		for _, ty := range propTypes {
			if r.Intn(3) == 0 {
				b.AddType(id, ty)
			}
		}
	}
	for i := 0; i < m; i++ {
		src := graph.NodeID(r.Intn(n))
		dst := graph.NodeID(r.Intn(n))
		if r.Intn(8) == 0 {
			dst = src
		}
		b.AddEdge(src, propEdgeLabels[r.Intn(len(propEdgeLabels))], dst)
		if r.Intn(6) == 0 {
			b.AddEdge(src, propEdgeLabels[r.Intn(len(propEdgeLabels))], dst) // often parallel
		}
	}
	return b.Build()
}

// randNodeTerm draws a node position: variables with and without
// conditions, anonymous positions, constants (known and unknown), and
// predicates no index serves (~ and <).
func randNodeTerm(r *rand.Rand, n int) eql.Predicate {
	v := []string{"x", "y", "z", "w"}[r.Intn(4)]
	label := fmt.Sprintf("n%d", r.Intn(n))
	switch roll := r.Intn(20); {
	case roll < 7:
		return eql.Var(v)
	case roll < 9:
		return eql.VarType(v, propTypes[r.Intn(len(propTypes))])
	case roll < 11:
		return eql.Var(v).With("label", eql.OpLike, fmt.Sprintf("n%d*", r.Intn(3)))
	case roll < 12:
		return eql.Var(v).With("label", eql.OpLt, label)
	case roll < 13:
		return eql.VarType(v, propTypes[0]).With("type", eql.OpEq, propTypes[1])
	case roll < 15:
		return eql.Predicate{}
	case roll < 18:
		return eql.Label(label)
	case roll < 19:
		return eql.Label("no-such-node")
	default:
		return eql.Predicate{}.With("type", eql.OpEq, propTypes[r.Intn(len(propTypes))])
	}
}

func randEdgeTerm(r *rand.Rand) eql.Predicate {
	v := []string{"e", "f"}[r.Intn(2)]
	label := propEdgeLabels[r.Intn(len(propEdgeLabels))]
	switch roll := r.Intn(20); {
	case roll < 9:
		return eql.Label(label)
	case roll < 10:
		return eql.Label("no-such-edge")
	case roll < 14:
		return eql.Var(v)
	case roll < 16:
		return eql.VarLabel(v, label)
	case roll < 18:
		return eql.Predicate{}
	case roll < 19:
		return eql.Predicate{}.With("label", eql.OpLike, "?")
	default:
		return eql.Var(v).With("label", eql.OpLe, "b")
	}
}

// randBGP draws 1–4 patterns. Node and edge variables come from disjoint
// pools, so roles never conflict; with four node variables the patterns
// are sometimes connected, sometimes not (cross products), repeat a
// variable inside one pattern, or share an edge variable.
func randBGP(r *rand.Rand, n int) eql.BGP {
	var b eql.BGP
	for k := 1 + r.Intn(4); k > 0; k-- {
		b.Patterns = append(b.Patterns, eql.EdgePattern{
			Src: randNodeTerm(r, n), Edge: randEdgeTerm(r), Dst: randNodeTerm(r, n),
		})
	}
	return b
}

func propTrials(t *testing.T, full int) int {
	if testing.Short() {
		return full / 8
	}
	return full
}

func TestEvaluateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < propTrials(t, 400); trial++ {
		n := 3 + r.Intn(20)
		g := randGraph(r, n, r.Intn(4*n))
		for q := 0; q < 12; q++ {
			checkAgainstReference(t, g, randBGP(r, n), fmt.Sprintf("trial %d query %d", trial, q))
		}
	}
}

// TestEvaluateCornerShapes pins the shapes the issue names, one by one,
// so a generator change cannot silently stop covering them.
func TestEvaluateCornerShapes(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	x, y, z := eql.Var("x"), eql.Var("y"), eql.Var("z")
	shapes := map[string]eql.BGP{
		"repeated variable in one pattern": {Patterns: []eql.EdgePattern{{Src: x, Edge: eql.Label("a"), Dst: x}}},
		"repeated variable, joined":        {Patterns: []eql.EdgePattern{{Src: x, Edge: eql.Label("a"), Dst: y}, {Src: y, Edge: eql.Var("e"), Dst: y}}},
		"shared edge variable": {Patterns: []eql.EdgePattern{
			{Src: x, Edge: eql.VarLabel("e", "a"), Dst: y}, {Src: eql.Predicate{}, Edge: eql.Var("e"), Dst: eql.VarType("y", "T0")}}},
		"shared edge variable, new endpoints": {Patterns: []eql.EdgePattern{
			{Src: eql.Predicate{}, Edge: eql.VarLabel("e", "b"), Dst: eql.Predicate{}}, {Src: x, Edge: eql.Var("e"), Dst: y}}},
		"cross product":            {Patterns: []eql.EdgePattern{{Src: x, Edge: eql.Label("a"), Dst: eql.Label("n1")}, {Src: y, Edge: eql.Label("b"), Dst: z}}},
		"anonymous positions":      {Patterns: []eql.EdgePattern{{Src: x, Edge: eql.Predicate{}, Dst: eql.Predicate{}}, {Src: eql.Predicate{}, Edge: eql.Label("a"), Dst: x}}},
		"constant-only":            {Patterns: []eql.EdgePattern{{Src: eql.Label("n0"), Edge: eql.Label("a"), Dst: eql.Label("n1")}}},
		"constant-only beside one": {Patterns: []eql.EdgePattern{{Src: eql.Label("n0"), Edge: eql.Predicate{}, Dst: eql.Predicate{}}, {Src: x, Edge: eql.Label("a"), Dst: y}}},
		"unknown edge label":       {Patterns: []eql.EdgePattern{{Src: x, Edge: eql.Label("a"), Dst: y}, {Src: y, Edge: eql.Label("no-such-edge"), Dst: z}}},
		"unindexed predicates": {Patterns: []eql.EdgePattern{
			{Src: eql.Var("x").With("label", eql.OpLike, "n1*"), Edge: eql.Predicate{}.With("label", eql.OpLt, "c"), Dst: y},
			{Src: y, Edge: eql.Label("a"), Dst: eql.Var("z").With("label", eql.OpLt, "n5")}}},
		"triangle": {Patterns: []eql.EdgePattern{{Src: x, Edge: eql.Var("e"), Dst: y}, {Src: y, Edge: eql.Predicate{}, Dst: z}, {Src: z, Edge: eql.Predicate{}, Dst: x}}},
	}
	for trial := 0; trial < propTrials(t, 200); trial++ {
		n := 3 + r.Intn(12)
		g := randGraph(r, n, n+r.Intn(4*n))
		for name, b := range shapes {
			checkAgainstReference(t, g, b, fmt.Sprintf("trial %d, %s", trial, name))
		}
	}
	// Zero-column contract on a graph where the answer is known.
	b := graph.NewBuilder()
	b.AddEdge(b.AddNode("n0"), "a", b.AddNode("n1"))
	g := b.Build()
	for want, q := range map[int]eql.BGP{1: shapes["constant-only"],
		0: {Patterns: []eql.EdgePattern{{Src: eql.Label("n1"), Edge: eql.Label("a"), Dst: eql.Label("n0")}}}} {
		tb, err := Evaluate(g, q)
		if err != nil || len(tb.Cols()) != 0 || tb.NumRows() != want {
			t.Fatalf("constant-only: %d cols, %d rows, err %v; want 0 cols, %d rows", len(tb.Cols()), tb.NumRows(), err, want)
		}
	}
}

// TestEvaluateMatchesReferenceOnLiveViews runs the comparison on epoch
// views of a graph.Store after random mutation batches — node, type and
// edge adds, deletes of delta edges and of base edges — before and after
// compaction folds the delta into a new base.
func TestEvaluateMatchesReferenceOnLiveViews(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < propTrials(t, 80); trial++ {
		n := 4 + r.Intn(12)
		base := randGraph(r, n, n+r.Intn(3*n))
		st := graph.NewStore(base, graph.StoreOptions{CompactThreshold: -1})
		label := func() string { return fmt.Sprintf("n%d", r.Intn(n)) }
		for round := 0; round < 3; round++ {
			var batch graph.Batch
			for ops := 2 + r.Intn(8); ops > 0; ops-- {
				switch r.Intn(5) {
				case 0:
					n++
					batch.AddNodes = append(batch.AddNodes, graph.NodeAdd{Label: fmt.Sprintf("n%d", n-1), Types: []string{propTypes[r.Intn(3)]}})
				case 1:
					batch.AddTypes = append(batch.AddTypes, graph.TypeAdd{Node: fmt.Sprintf("n%d", r.Intn(base.NumNodes())), Type: propTypes[r.Intn(3)]})
				case 2, 3:
					batch.AddEdges = append(batch.AddEdges, graph.Triple{Source: label(), Label: propEdgeLabels[r.Intn(4)], Target: label()})
				default:
					// A live edge of the current view, base or delta.
					v := st.View()
					if e := graph.EdgeID(r.Intn(v.NumEdges() + 1)); int(e) < v.NumEdges() && v.EdgeAlive(e) {
						ed := v.Edge(e)
						batch.DelEdges = append(batch.DelEdges, graph.Triple{
							Source: v.NodeLabel(ed.Source), Label: v.EdgeLabel(e), Target: v.NodeLabel(ed.Target)})
					}
				}
			}
			if _, err := st.Mutate(batch); err != nil {
				t.Fatalf("trial %d round %d: mutate: %v", trial, round, err)
			}
			queries := make([]eql.BGP, 10)
			for i := range queries {
				queries[i] = randBGP(r, n)
			}
			for i, q := range queries {
				checkAgainstReference(t, st.View(), q, fmt.Sprintf("trial %d round %d query %d (delta)", trial, round, i))
			}
			if round == 1 {
				if err := st.CompactNow(); err != nil {
					t.Fatal(err)
				}
				for i, q := range queries {
					checkAgainstReference(t, st.View(), q, fmt.Sprintf("trial %d round %d query %d (compacted)", trial, round, i))
				}
			}
		}
	}
}

// TestBindVersusScan exercises both sides of the executor's rule with
// counts that tell which side ran. The graph: hubs h0..h9, each with one
// "tag" edge to node t, 30 "pad" out-edges, and two "r" out-edges; 40
// more "r" edges lie elsewhere.
func TestBindVersusScan(t *testing.T) {
	b := graph.NewBuilder()
	tag := b.AddNode("t")
	for i := 0; i < 10; i++ {
		h := b.AddNode(fmt.Sprintf("h%d", i))
		b.AddEdge(h, "tag", tag)
		for j := 0; j < 30; j++ {
			b.AddEdge(h, "pad", b.AddNode(""))
		}
		b.AddEdge(h, "r", b.AddNode(""))
		b.AddEdge(h, "r", b.AddNode(""))
	}
	for i := 0; i < 40; i++ {
		b.AddEdge(b.AddNode(""), "r", b.AddNode(""))
	}
	g := b.Build()
	x, y := eql.Var("x"), eql.Var("y")

	// Few bindings: one hub. Its 33 out-edges are fewer than the 60 "r"
	// edges, so "r" is read through ?x's adjacency.
	few := eql.BGP{Patterns: []eql.EdgePattern{
		{Src: eql.VarLabel("x", "h3"), Edge: eql.Label("tag"), Dst: eql.Predicate{}},
		{Src: x, Edge: eql.Label("r"), Dst: y},
	}}
	st := checkAgainstReference(t, g, few, "few bindings")
	if want := 33 + 33; st.Examined != want {
		t.Errorf("few bindings: examined %d edges, want %d (h3's out-edges, twice)", st.Examined, want)
	}

	// Many bindings: all ten hubs, 330 out-edges against 60 "r" edges —
	// "r" is scanned through its label index and hash-joined.
	many := eql.BGP{Patterns: []eql.EdgePattern{
		{Src: x, Edge: eql.Label("tag"), Dst: eql.Predicate{}},
		{Src: x, Edge: eql.Label("r"), Dst: y},
	}}
	st = checkAgainstReference(t, g, many, "many bindings")
	if want := 10 + 60; st.Examined != want {
		t.Errorf("many bindings: examined %d edges, want %d (the tag label, then the r label)", st.Examined, want)
	}
	if st.Rows != 10+60+20 {
		t.Errorf("many bindings: %d rows materialized, want 90 (10 tag, 60 r, 20 joined)", st.Rows)
	}
}
