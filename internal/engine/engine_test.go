package engine

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

func mustParse(t *testing.T, src string) *eql.Query {
	t.Helper()
	q, err := eql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func exec(t *testing.T, g *graph.Graph, src string) (*Result, *eql.Query) {
	t.Helper()
	q := mustParse(t, src)
	res, err := NewDefault(g).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	return res, q
}

// The paper's Q1 end to end: connections between an American
// entrepreneur, a French entrepreneur, and a French politician.
func TestQ1EndToEnd(t *testing.T) {
	g := gen.Sample()
	res, _ := exec(t, g, `
SELECT ?x ?y ?z ?w WHERE {
  ?x citizenOf USA .
  ?y citizenOf France .
  ?z citizenOf France .
  FILTER type(?x) = entrepreneur .
  FILTER type(?y) = entrepreneur .
  FILTER type(?z) = politician .
  CONNECT ?x ?y ?z AS ?w MAX 5 .
}`)
	if res.Table.NumRows() == 0 {
		t.Fatal("Q1 returned nothing")
	}
	// The motivating answer (Carole, Doug, Elon, t_alpha) must be a row.
	carole, _ := g.NodeByLabel("Carole")
	doug, _ := g.NodeByLabel("Doug")
	elon, _ := g.NodeByLabel("Elon")
	xc, yc, zc, wc := res.Table.Column("x"), res.Table.Column("y"), res.Table.Column("z"), res.Table.Column("w")
	found := false
	for i := 0; i < res.Table.NumRows(); i++ {
		r := res.Table.Row(i)
		if graph.NodeID(r[xc]) == carole && graph.NodeID(r[yc]) == doug && graph.NodeID(r[zc]) == elon {
			tr := res.Tree(r[wc])
			if tr != nil && tr.Size() == 3 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("the (Carole, Doug, Elon) 3-edge connection is missing")
	}
	// Every bound z must be Elon (the only French politician).
	for i := 0; i < res.Table.NumRows(); i++ {
		if graph.NodeID(res.Table.Row(i)[zc]) != elon {
			t.Fatal("z bound to a non-politician")
		}
	}
	if len(res.CTPStats) != 1 || res.CTPStats[0].Results == 0 {
		t.Fatalf("CTP stats missing: %+v", res.CTPStats)
	}
	if res.BGPTime < 0 || res.CTPTime <= 0 {
		t.Fatal("timings not recorded")
	}
}

// The CDF benchmark query for m=2 (Section 5.3): one answer per link.
func TestCDFQueryM2(t *testing.T) {
	c := gen.NewCDF(2, 4, 6, 3)
	res, _ := exec(t, c.Graph, `
SELECT ?v ?tl ?l WHERE {
  ?x c ?tl .
  ?v g ?bl .
  CONNECT ?bl ?tl AS ?l .
}`)
	if res.Table.NumRows() != c.NL {
		t.Fatalf("rows = %d, want NL = %d", res.Table.NumRows(), c.NL)
	}
}

// The CDF query for m=3: the CTP finds extra trees (connecting bottom
// leaves through their tree structure, Section 5.5.1's 7x observation);
// the join keeps only trees whose two bottom leaves share a parent.
func TestCDFQueryM3(t *testing.T) {
	c := gen.NewCDF(3, 4, 6, 3)
	res, q := exec(t, c.Graph, `
SELECT ?v ?tl ?l WHERE {
  ?x c ?tl .
  ?v g ?bl1 .
  ?v h ?bl2 .
  CONNECT ?tl ?bl1 ?bl2 AS ?l .
}`)
	if res.Table.NumRows() < c.NL {
		t.Fatalf("rows = %d, want >= NL = %d", res.Table.NumRows(), c.NL)
	}
	// The CTP itself found more than the joined results keep (the paper's
	// bidirectionality observation) — on this topology the Y-links plus
	// sibling detours both survive, but unrelated-bottom trees are cut.
	if res.CTPStats[0].Results < res.Table.NumRows() {
		t.Fatalf("CTP results %d < joined rows %d", res.CTPStats[0].Results, res.Table.NumRows())
	}
	_ = q
}

// A universal seed set (J3-shaped query): CONNECT with an unbound, empty
// member explores the neighborhood of the bound seed.
func TestUniversalMemberQuery(t *testing.T) {
	g := gen.Sample()
	res, _ := exec(t, g, `SELECT ?w WHERE { CONNECT Alice ?any AS ?w MAX 1 . }`)
	// Alice has 2 incident edges; with MAX 1 the results are: Alice alone
	// (any = Alice) plus one tree per incident edge.
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.Table.NumRows())
	}
	// Universal members auto-enable the multi-queue path; the stats must
	// reflect a real search.
	if res.CTPStats[0].Kept() == 0 {
		t.Fatal("no search happened")
	}
}

// A universal member with a named head variable expands over tree nodes.
func TestUniversalMemberExpansion(t *testing.T) {
	g := gen.Sample()
	res, _ := exec(t, g, `SELECT ?any ?w WHERE { CONNECT Alice ?any AS ?w MAX 1 . }`)
	// Trees: {Alice} (1 node) + 2 one-edge trees (2 nodes each) = 1 + 4 rows.
	if res.Table.NumRows() != 5 {
		t.Fatalf("rows = %d, want 5", res.Table.NumRows())
	}
}

// SCORE/TOP end to end through the parser and the score registry.
func TestScoreTopEndToEnd(t *testing.T) {
	g := gen.Sample()
	res, _ := exec(t, g, `SELECT ?w WHERE {
		CONNECT Bob Alice AS ?w SCORE size TOP 1 .
	}`)
	if res.Table.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", res.Table.NumRows())
	}
	tr := res.Tree(res.Table.Row(0)[0])
	if tr.Size() != 1 {
		t.Fatalf("TOP 1 by size kept a %d-edge tree; Bob-parentOf->Alice is 1 edge", tr.Size())
	}
}

func TestUnknownScoreFunction(t *testing.T) {
	g := gen.Sample()
	q := mustParse(t, `SELECT ?w WHERE { CONNECT Bob Alice AS ?w SCORE bogus TOP 1 . }`)
	if _, err := NewDefault(g).Execute(q); err == nil {
		t.Fatal("unknown score function should error")
	}
}

// Seed-set derivation: a CTP member bound by a BGP uses the binding; the
// member predicate further restricts it (Section 3 step B.1).
func TestSeedSetFromBGPWithRestriction(t *testing.T) {
	g := gen.Sample()
	// ?x citizenOf France binds {Alice, Doug, Elon}; the CTP member
	// restricts to politicians => {Elon}.
	res, _ := exec(t, g, `
SELECT ?x ?w WHERE {
  ?x citizenOf France .
  FILTER type(?x) = politician .
  CONNECT ?x USA AS ?w MAX 3 .
}`)
	elon, _ := g.NodeByLabel("Elon")
	xc := res.Table.Column("x")
	if res.Table.NumRows() == 0 {
		t.Fatal("no results")
	}
	for i := 0; i < res.Table.NumRows(); i++ {
		if graph.NodeID(res.Table.Row(i)[xc]) != elon {
			t.Fatal("seed restriction failed")
		}
	}
}

// The engine's default timeout applies when the query has none.
func TestDefaultTimeout(t *testing.T) {
	w := gen.Chain(22)
	e := New(w.Graph, Options{Algorithm: core.MoLESP, DefaultTimeout: time.Millisecond})
	q := mustParse(t, `SELECT ?w WHERE { CONNECT "1" "23" AS ?w . }`)
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CTPStats[0].TimedOut {
		t.Fatal("default timeout not applied")
	}
}

// Per-query TIMEOUT overrides the default.
func TestQueryTimeoutWins(t *testing.T) {
	w := gen.Chain(10)
	e := New(w.Graph, Options{Algorithm: core.MoLESP, DefaultTimeout: time.Nanosecond})
	q := mustParse(t, `SELECT ?w WHERE { CONNECT "1" "11" AS ?w TIMEOUT 10s . }`)
	res, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.CTPStats[0].TimedOut {
		t.Fatal("query timeout should have overridden the default")
	}
	if res.Table.NumRows() != 1<<10 {
		t.Fatalf("rows = %d, want %d", res.Table.NumRows(), 1<<10)
	}
}

// Pure-BGP queries work without CTPs (k >= 0, l = 0 in Definition 2.6).
func TestPureBGPQuery(t *testing.T) {
	g := gen.Sample()
	res, _ := exec(t, g, `SELECT ?x ?o WHERE { ?x founded ?o . }`)
	if res.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", res.Table.NumRows())
	}
	if len(res.CTPStats) != 0 {
		t.Fatal("no CTPs should have run")
	}
}

// Multiple CTPs in one query (the J1 shape: several BGPs and CTPs).
func TestTwoCTPs(t *testing.T) {
	g := gen.Sample()
	res, _ := exec(t, g, `
SELECT ?x ?w1 ?w2 WHERE {
  ?x citizenOf USA .
  CONNECT ?x France AS ?w1 MAX 3 .
  CONNECT ?x "National Liberal Party" AS ?w2 MAX 3 .
}`)
	if res.Table.NumRows() == 0 {
		t.Fatal("no results")
	}
	if len(res.CTPStats) != 2 {
		t.Fatalf("CTP stats = %d, want 2", len(res.CTPStats))
	}
	// Both tree columns resolve to actual trees.
	w1, w2 := res.Table.Column("w1"), res.Table.Column("w2")
	for i := 0; i < res.Table.NumRows(); i++ {
		if res.Tree(res.Table.Row(i)[w1]) == nil || res.Tree(res.Table.Row(i)[w2]) == nil {
			t.Fatal("unresolvable tree handle")
		}
	}
}

// A CTP whose seed sets come up empty yields an empty result, not an
// error.
func TestEmptySeedSet(t *testing.T) {
	g := gen.Sample()
	res, _ := exec(t, g, `SELECT ?w WHERE { CONNECT Nobody Alice AS ?w . }`)
	if res.Table.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0", res.Table.NumRows())
	}
}

// Invalid queries are rejected before execution.
func TestExecuteValidates(t *testing.T) {
	g := gen.Sample()
	q := &eql.Query{Head: []string{"zz"}, CTPs: []eql.CTP{{
		Members: []eql.Predicate{eql.Var("a"), eql.Var("b")}, TreeVar: "w"}}}
	if _, err := NewDefault(g).Execute(q); err == nil {
		t.Fatal("invalid head should be rejected")
	}
}

// Tree handle resolution is bounds-checked.
func TestTreeHandleBounds(t *testing.T) {
	r := &Result{}
	if r.Tree(0) != nil || r.Tree(-1) != nil {
		t.Fatal("out-of-range handles must return nil")
	}
}

func TestFormatTreeAndRow(t *testing.T) {
	g := gen.Sample()
	res, q := exec(t, g, `SELECT ?x ?w WHERE {
		?x citizenOf USA .
		CONNECT ?x Alice AS ?w MAX 2 .
	}`)
	if res.Table.NumRows() == 0 {
		t.Fatal("no rows")
	}
	tr := res.Tree(res.Table.Row(0)[res.Table.Column("w")])
	s := FormatTree(g, tr)
	if !strings.Contains(s, "-[") {
		t.Fatalf("FormatTree = %q", s)
	}
	row := res.FormatRow(g, q, 0)
	if !strings.Contains(row, "?x=") || !strings.Contains(row, "?w={") {
		t.Fatalf("FormatRow = %q", row)
	}
	if FormatTree(g, nil) != "<nil>" {
		t.Fatal("nil tree formatting")
	}
}

// Skew selects the multi-queue strategy: a huge seed set against a
// singleton must run it, and still terminate quickly under a tight
// timeout, finding at least the nearby results first (the J2 scenario).
func TestSkewedSeedSetsUseMultiQueue(t *testing.T) {
	kg := gen.YAGOLike(300, 7)
	g := kg.Graph
	// Seed set 1: every person (huge). Seed set 2: one specific city.
	q := mustParse(t, `SELECT ?w WHERE {
		?p bornIn ?c .
		CONNECT ?p city0 AS ?w MAX 3 TIMEOUT 2s LIMIT 50 .
	}`)
	res, err := New(g, Options{Algorithm: core.MoLESP}).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Fatal("skewed query found nothing")
	}
	if st := res.CTPStats[0]; !st.MultiQueue || st.Parallelism != 0 {
		t.Fatalf("skewed query ran multi-queue %v at %d workers, want the multi-queue on the caller's goroutine",
			st.MultiQueue, st.Parallelism)
	}
}

// TestResolveSchedule pins the schedule rule of DESIGN.md §6, each row
// one rule.
func TestResolveSchedule(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name      string
		alg       core.Algorithm
		par       int
		universal bool
		sizes     []int
		want      schedule
	}{
		{"single queue at degree 0", core.MoLESP, 0, false, []int{3, 1},
			schedule{rule: byDegree}},
		{"universal seed set", core.MoLESP, 0, true, []int{1},
			schedule{multiQueue: true, rule: byUniversal}},
		{"universal wins over a degree", core.GAM, 4, true, nil,
			schedule{multiQueue: true, rule: byUniversal}},
		{"skew >= 32 at degree 0", core.MoLESP, 0, false, []int{1, 32},
			schedule{multiQueue: true, rule: bySkew}},
		{"skew just under 32", core.MoLESP, 0, false, []int{2, 63},
			schedule{rule: byDegree}},
		{"an empty seed set is no skew", core.MoLESP, 0, false, []int{0, 500},
			schedule{rule: byDegree}},
		{"skew ignored at degree 2", core.MoLESP, 2, false, []int{1, 1000},
			schedule{workers: 2, rule: byDegree}},
		{"degree 1", core.ESP, 1, false, []int{1, 1},
			schedule{workers: 1, rule: byDegree}},
		{"sentinel is GOMAXPROCS", core.MoLESP, -1, false, []int{1, 1000},
			schedule{workers: gmp, rule: byDegree}},
		{"BFT at degree 4", core.BFT, 4, false, []int{1, 1},
			schedule{rule: byFamily}},
		{"BFT with a universal seed set", core.BFTAM, 0, true, []int{1},
			schedule{rule: byFamily}},
		{"bound size waits for the run", core.MoLESP, 0, false, []int{unknownSize, 1},
			schedule{rule: bySkew}},
		{"bound size is moot at a degree", core.MoLESP, 3, false, []int{unknownSize, 1},
			schedule{workers: 3, rule: byDegree}},
	} {
		if got := resolveSchedule(tc.alg, tc.par, tc.universal, tc.sizes); got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
