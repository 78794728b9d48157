package bgp

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"ctpquery/internal/eql"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
	"ctpquery/internal/storage"
)

// referenceEvaluate is the evaluator this package shipped before the
// planner: materialize every pattern on its own through the string-level
// predicate API, then hash-join in ascending-cardinality order. Its scans
// and joins share nothing with the planner or the executor, which makes
// it the oracle of the differential tests in prop_test.go.
func referenceEvaluate(g *graph.Graph, b eql.BGP) (*storage.Table, error) {
	if err := checkRoles(b); err != nil {
		return nil, err
	}
	tables := make([]*storage.Table, 0, len(b.Patterns))
	for _, ep := range b.Patterns {
		tables = append(tables, referenceScan(g, ep).Distinct())
	}
	sort.SliceStable(tables, func(i, j int) bool { return tables[i].NumRows() < tables[j].NumRows() })
	acc := tables[0]
	rest := tables[1:]
	for len(rest) > 0 {
		picked := 0 // no shared column: cross product, as SQL would
		for i, t := range rest {
			if referenceSharesColumn(acc, t) {
				picked = i
				break
			}
		}
		acc = storage.NaturalJoin(acc, rest[picked])
		rest = append(rest[:picked], rest[picked+1:]...)
	}
	return acc.Distinct(), nil
}

func referenceSharesColumn(a, b *storage.Table) bool {
	for _, c := range b.Cols() {
		if a.HasColumn(c) {
			return true
		}
	}
	return false
}

// referenceScan materializes the bindings of a single edge pattern,
// keeping only named-variable columns.
func referenceScan(g *graph.Graph, ep eql.EdgePattern) *storage.Table {
	var cols []string
	for _, v := range []string{ep.Src.Var, ep.Edge.Var, ep.Dst.Var} {
		if v != "" && !slices.Contains(cols, v) {
			cols = append(cols, v)
		}
	}
	out := storage.NewTable(cols...)
	emit := func(e graph.EdgeID) {
		ed := g.Edge(e)
		if !ep.Src.MatchNode(g, ed.Source) ||
			!ep.Edge.MatchEdge(g, e) ||
			!ep.Dst.MatchNode(g, ed.Target) {
			return
		}
		// Repeated variables within the pattern must bind equal elements.
		if ep.Src.Var != "" && ep.Src.Var == ep.Dst.Var && ed.Source != ed.Target {
			return
		}
		row := make([]int32, len(cols))
		if ep.Src.Var != "" {
			row[out.Column(ep.Src.Var)] = int32(ed.Source)
		}
		if ep.Edge.Var != "" {
			row[out.Column(ep.Edge.Var)] = int32(e)
		}
		if ep.Dst.Var != "" {
			row[out.Column(ep.Dst.Var)] = int32(ed.Target)
		}
		out.AddRow(row...)
	}
	edgeSel := ep.Edge.Selectivity(g, false)
	srcSel := ep.Src.Selectivity(g, true)
	dstSel := ep.Dst.Selectivity(g, true)
	switch {
	case edgeSel <= srcSel && edgeSel <= dstSel && edgeSel < g.NumEdges():
		for _, e := range ep.Edge.SelectEdges(g) {
			emit(e)
		}
	case srcSel <= dstSel && srcSel < g.NumNodes():
		for _, n := range ep.Src.SelectNodes(g) {
			for _, e := range g.Out(n) {
				emit(e)
			}
		}
	case dstSel < g.NumNodes():
		for _, n := range ep.Dst.SelectNodes(g) {
			for _, e := range g.In(n) {
				emit(e)
			}
		}
	default:
		// Full ID-space scan: on a live epoch view, skip deleted slots.
		for i := 0; i < g.NumEdges(); i++ {
			if g.EdgeAlive(graph.EdgeID(i)) {
				emit(graph.EdgeID(i))
			}
		}
	}
	return out
}

func mustParse(t *testing.T, src string) *eql.Query {
	t.Helper()
	q, err := eql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestSinglePattern(t *testing.T) {
	g := gen.Sample()
	q := mustParse(t, `SELECT ?x WHERE { ?x citizenOf ?c . }`)
	tb, err := Evaluate(g, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5 citizenOf bindings", tb.NumRows())
	}
	if !tb.HasColumn("x") || !tb.HasColumn("c") {
		t.Fatalf("cols = %v", tb.Cols())
	}
}

func TestConstantObjectDedup(t *testing.T) {
	g := gen.Sample()
	q := mustParse(t, `SELECT ?x WHERE { ?x citizenOf France . }`)
	tb, err := Evaluate(g, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Alice, Doug, Elon.
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", tb.NumRows())
	}
	if len(tb.Cols()) != 1 {
		t.Fatalf("anonymous positions must be projected away: %v", tb.Cols())
	}
}

func TestJoinAcrossPatterns(t *testing.T) {
	g := gen.Sample()
	q := mustParse(t, `SELECT ?x ?o WHERE { ?x citizenOf USA . ?x founded ?o . }`)
	tb, err := Evaluate(g, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Bob founded OrgB; Carole founded OrgA and OrgC.
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3\n%s", tb.NumRows(), tb)
	}
}

func TestTriangleJoin(t *testing.T) {
	g := gen.Sample()
	// Entrepreneurs investing in a company located in the USA.
	q := mustParse(t, `SELECT ?p ?c WHERE {
		?p investsIn ?c .
		?c locatedIn USA .
	}`)
	tb, err := Evaluate(g, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	// OrgC is in the USA; Doug and Falcon invest in OrgC.
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2\n%s", tb.NumRows(), tb)
	}
}

func TestEdgeVariableBinding(t *testing.T) {
	g := gen.Sample()
	q := mustParse(t, `SELECT ?e WHERE { Alice ?e France . }`)
	tb, err := Evaluate(g, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", tb.NumRows())
	}
	e := graph.EdgeID(tb.Row(0)[tb.Column("e")])
	if g.EdgeLabel(e) != "citizenOf" {
		t.Fatalf("edge label = %q", g.EdgeLabel(e))
	}
}

func TestTypeFilterInPattern(t *testing.T) {
	g := gen.Sample()
	q := mustParse(t, `SELECT ?x WHERE {
		?x citizenOf France .
		FILTER type(?x) = politician .
	}`)
	tb, err := Evaluate(g, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1 (Elon)", tb.NumRows())
	}
	n := graph.NodeID(tb.Row(0)[tb.Column("x")])
	if g.NodeLabel(n) != "Elon" {
		t.Fatalf("bound %q", g.NodeLabel(n))
	}
}

func TestSelfLoopVariable(t *testing.T) {
	b := graph.NewBuilder()
	n := b.AddNode("n")
	m := b.AddNode("m")
	b.AddEdge(n, "self", n)
	b.AddEdge(n, "self", m)
	g := b.Build()
	q := mustParse(t, `SELECT ?x WHERE { ?x self ?x . }`)
	tb, err := Evaluate(g, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("rows = %d, want only the true self-loop", tb.NumRows())
	}
}

func TestExistenceOnlyPattern(t *testing.T) {
	g := gen.Sample()
	q := mustParse(t, `SELECT * WHERE { Alice citizenOf France . }`)
	tb, err := Evaluate(g, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Cols()) != 0 || tb.NumRows() != 1 {
		t.Fatalf("existence check: %d cols, %d rows", len(tb.Cols()), tb.NumRows())
	}
	q2 := mustParse(t, `SELECT * WHERE { Alice citizenOf USA . }`)
	tb2, err := Evaluate(g, q2.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tb2.NumRows() != 0 {
		t.Fatalf("false existence check returned %d rows", tb2.NumRows())
	}
}

func TestVariableRoleConflict(t *testing.T) {
	b := eql.BGP{Patterns: []eql.EdgePattern{
		{Src: eql.Var("x"), Edge: eql.Var("e"), Dst: eql.Var("y")},
		{Src: eql.Var("e"), Edge: eql.Var("f"), Dst: eql.Var("y")},
	}}
	if _, err := Evaluate(gen.Sample(), b); err == nil {
		t.Fatal("node/edge role conflict should error")
	}
}

func TestEmptyBGP(t *testing.T) {
	if _, err := Evaluate(gen.Sample(), eql.BGP{}); err == nil {
		t.Fatal("empty BGP should error")
	}
}

func TestGlobPredicateScan(t *testing.T) {
	g := gen.Sample()
	q := mustParse(t, `SELECT ?x WHERE {
		?x founded ?o .
		FILTER label(?o) ~ "Org*" .
	}`)
	tb, err := Evaluate(g, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", tb.NumRows())
	}
}

func TestLargeScanChoosesIndex(t *testing.T) {
	// On a KG-sized graph a label-indexed scan must return the same rows
	// as the semantics require, quickly.
	kg := gen.YAGOLike(200, 1)
	q := mustParse(t, `SELECT ?p ?o WHERE { ?p worksFor ?o . }`)
	tb, err := Evaluate(kg.Graph, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := len(kg.Graph.EdgesWithLabel(mustLabel(t, kg.Graph, "worksFor")))
	if tb.NumRows() > want {
		t.Fatalf("rows = %d, more than worksFor edge count %d", tb.NumRows(), want)
	}
	if tb.NumRows() == 0 {
		t.Fatal("no worksFor bindings")
	}
}

func mustLabel(t *testing.T, g *graph.Graph, s string) graph.LabelID {
	t.Helper()
	l, ok := g.LabelIDOf(s)
	if !ok {
		t.Fatalf("label %q missing", s)
	}
	return l
}

func TestDuplicateEliminationSetSemantics(t *testing.T) {
	// Two anonymous France memberships for the same person must collapse.
	b := graph.NewBuilder()
	p := b.AddNode("p")
	f1 := b.AddNode("f1")
	f2 := b.AddNode("f2")
	b.AddEdge(p, "knows", f1)
	b.AddEdge(p, "knows", f2)
	g := b.Build()
	q := mustParse(t, `SELECT ?x WHERE { ?x knows ?anyone . }`)
	_ = q
	// With the object anonymous, ?x must appear once.
	bgpAnon := eql.BGP{Patterns: []eql.EdgePattern{
		{Src: eql.Var("x"), Edge: eql.Label("knows"), Dst: eql.Predicate{}},
	}}
	tb, err := Evaluate(g, bgpAnon)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1 after dedup", tb.NumRows())
	}
}

func chain(vars ...string) eql.BGP {
	var b eql.BGP
	for i := 0; i+1 < len(vars); i++ {
		b.Patterns = append(b.Patterns, eql.EdgePattern{Src: eql.Var(vars[i]), Edge: eql.Label("r"), Dst: eql.Var(vars[i+1])})
	}
	return b
}

// A cancelled context stops an evaluation that would otherwise materialize
// tens of millions of rows — through bind joins, hash joins and cross
// products alike — and an expired deadline does not.
func TestEvaluateContextCancellation(t *testing.T) {
	// 1500 nodes, 15000 "r" edges: each hop of a chain multiplies rows by 10.
	g := gen.Random(1500, 15000, []string{"r"}, rand.New(rand.NewSource(7)))
	cross := chain("a", "b")
	cross.Patterns = append(cross.Patterns, chain("c", "d").Patterns...)
	for name, b := range map[string]eql.BGP{
		"joins":         chain("a", "b", "c", "d", "e"), // 15000 * 10^3 rows
		"cross product": cross,                          // 15000^2 rows
	} {
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(5*time.Millisecond, cancel)
		start := time.Now()
		tb, st, err := EvaluateContext(ctx, g, b)
		if !errors.Is(err, context.Canceled) || tb != nil {
			t.Fatalf("%s: table %v, err %v; want context.Canceled", name, tb != nil, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: cancellation took %v", name, d)
		}
		if st.Examined+st.Rows == 0 || st.Rows > 5_000_000 {
			t.Errorf("%s: stats %+v; want the work done until cancellation, well short of the full result", name, st)
		}
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	tb, _, err := EvaluateContext(ctx, g, chain("a", "b"))
	if err != nil || tb.NumRows() == 0 {
		t.Fatalf("expired deadline: err %v; want the complete table", err)
	}
}

// Plan reports the greedy order and, per step, the access path with the
// estimates behind it.
func TestPlan(t *testing.T) {
	kg := gen.YAGOLike(500, 1)
	g := kg.Graph
	q := mustParse(t, `SELECT ?p ?q WHERE { ?p knows ?q . ?p memberOf org3 . }`)
	steps, err := Plan(g, q.BGPs[0])
	if err != nil {
		t.Fatal(err)
	}
	knows := len(g.EdgesWithLabel(mustLabel(t, g, "knows")))
	want := []Step{
		{Pattern: 1, Access: ScanDstIndex, Scan: ScanDstIndex, Est: 1, ScanCost: avgDegree(g)},
		{Pattern: 0, Access: BindOut, Var: "p", Scan: ScanEdgeLabel, Est: knows, ScanCost: knows, BindCost: avgDegree(g)},
	}
	if !slices.Equal(steps, want) {
		t.Fatalf("plan = %+v\nwant   %+v", steps, want)
	}

	// An edge variable bound earlier is a direct lookup; a bound set
	// estimated larger than the pattern's index falls back to a hash join;
	// a pattern sharing nothing is a cross product.
	e := eql.Var("e")
	for name, tc := range map[string]struct {
		b    eql.BGP
		want Access
	}{
		"edge lookup": {eql.BGP{Patterns: []eql.EdgePattern{
			{Src: eql.Var("x"), Edge: eql.VarLabel("e", "spouse"), Dst: eql.Predicate{}},
			{Src: eql.Predicate{}, Edge: e, Dst: eql.Var("y")}}}, BindEdge},
		"hash join": {eql.BGP{Patterns: []eql.EdgePattern{
			{Src: eql.Var("x"), Edge: eql.Label("livesIn"), Dst: eql.Predicate{}},
			{Src: eql.Var("x"), Edge: eql.Label("bornIn"), Dst: eql.Var("y")}}}, HashJoin},
		"cross product": {eql.BGP{Patterns: []eql.EdgePattern{
			{Src: eql.Var("x"), Edge: eql.Label("spouse"), Dst: eql.Predicate{}},
			{Src: eql.Var("y"), Edge: eql.Label("owns"), Dst: eql.Predicate{}}}}, CrossProduct},
	} {
		steps, err := Plan(g, tc.b)
		if err != nil || steps[1].Access != tc.want {
			t.Errorf("%s: second step %+v, err %v; want access %v", name, steps[1], err, tc.want)
		}
	}
	if _, err := Plan(g, eql.BGP{}); err == nil {
		t.Error("empty BGP should not plan")
	}
}
