package engine

import (
	"strings"
	"testing"
	"time"

	"ctpquery/internal/core"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

func TestExplain(t *testing.T) {
	g := gen.Sample()
	q := mustParse(t, `
SELECT ?x ?w WHERE {
  ?x citizenOf USA .
  CONNECT ?x ?anything AS ?w MAX 3 TIMEOUT 1s .
} LIMIT 10`)
	plan, err := NewDefault(g).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"1 BGP(s), 1 CTP(s)", "MoLESP", `1. (?x, "citizenOf", "USA"): scan via dst node index`, "bound by BGP",
		"universal (N)", "multi-queue: true", "MAX 3", "LIMIT 10",
	} {
		if !strings.Contains(plan, want) {
			t.Fatalf("plan missing %q:\n%s", want, plan)
		}
	}
}

// Explain prints the planner's order, not the source order, and each
// step's access path with the estimates that chose it.
func TestExplainBGPPlan(t *testing.T) {
	kg := gen.YAGOLike(500, 1)
	for _, tc := range []struct {
		src  string
		want []string
	}{
		{`SELECT ?p ?q WHERE { ?p knows ?q . ?p memberOf org3 . }`, []string{
			`1. (?p, "memberOf", "org3"): scan via dst node index: est. <= 1 edges`,
			`2. (?p, "knows", ?q): bind ?p → out-adjacency: est. `,
			"by scan edge-label index",
			"decided again at run time",
		}},
		{`SELECT ?x ?y WHERE { ?x livesIn ?c . ?x bornIn ?y . }`, []string{
			"hash join (bound set too large) over scan edge-label index",
		}},
		{`SELECT ?y ?z WHERE { person3 ?e ?y . ?x ?e ?z . }`, []string{
			"bind ?e → edge lookup",
		}},
	} {
		plan, err := NewDefault(kg.Graph).Explain(mustParse(t, tc.src))
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range tc.want {
			if !strings.Contains(plan, want) {
				t.Errorf("plan of %s missing %q:\n%s", tc.src, want, plan)
			}
		}
	}
}

// Explain prints the schedule the run takes, never a guess: a skew
// decision that waits on a BGP-bound seed set says so, and BFT-family
// algorithms have one queue whatever the seed sets and degree.
func TestExplainPrintsTheRunSchedule(t *testing.T) {
	// The production schedule: no search runs sharded (core.Sharded).
	defer core.ShardedForTesting(core.ShardedForTesting(false))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		opts Options
		src  string
		want []string
		mq   bool // the run's schedule, on the caller's goroutine
	}{
		{"BGP-bound seed set", gen.YAGOLike(300, 7).Graph, Options{},
			`SELECT ?w WHERE { ?p bornIn city0 . CONNECT ?p org0 AS ?w MAX 3 . }`,
			[]string{"multi-queue: decided at run time, from the bound seed-set sizes", "rule: skew >= 32 at degree 0"},
			false},
		{"BFT at degree 4", gen.Sample(), Options{Algorithm: core.BFT, Parallelism: 4},
			`SELECT ?t WHERE { CONNECT Alice ?any AS ?t MAX 2 . }`,
			[]string{"multi-queue: false; parallelism: sequential kernel (rule: algorithm family)"},
			false},
		{"universal at degree 4", gen.Sample(), Options{Parallelism: 4},
			`SELECT ?t WHERE { CONNECT Alice ?any AS ?t MAX 2 . }`,
			[]string{"multi-queue: true; parallelism: sequential kernel (rule: universal seed set)"},
			true},
		{"MoLESP at degree 2", gen.Sample(), Options{Parallelism: 2},
			`SELECT ?t WHERE { CONNECT Alice Bob AS ?t MAX 3 . }`,
			[]string{"multi-queue: false; parallelism: sequential kernel (worker bound 2, not used: DESIGN.md §6) (rule: degree)"},
			false},
		{"MoLESP at degree 1", gen.Sample(), Options{Parallelism: 1},
			`SELECT ?t WHERE { CONNECT Alice Bob AS ?t MAX 3 . }`,
			[]string{"multi-queue: false; parallelism: sequential kernel (worker bound 1, not used: DESIGN.md §6) (rule: degree)"},
			false},
	} {
		e := New(tc.g, tc.opts)
		plan, err := e.Explain(mustParse(t, tc.src))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "multi-queue: true") != tc.mq {
			t.Errorf("%s: plan prints a multi-queue the run does not take (or the reverse):\n%s", tc.name, plan)
		}
		for _, want := range tc.want {
			if !strings.Contains(plan, want) {
				t.Errorf("%s: plan missing %q:\n%s", tc.name, want, plan)
			}
		}
		res, err := e.Execute(mustParse(t, tc.src))
		if err != nil {
			t.Fatal(err)
		}
		if st := res.CTPStats[0]; st.MultiQueue != tc.mq || st.Parallelism != 0 {
			t.Errorf("%s: run took multi-queue %v at %d workers, want %v on the caller's goroutine",
				tc.name, st.MultiQueue, st.Parallelism, tc.mq)
		}
	}
	// Where tests turn the runtime on, the run is sharded and Explain says so.
	core.ShardedForTesting(true)
	e := New(gen.Sample(), Options{Parallelism: 2})
	src := `SELECT ?t WHERE { CONNECT Alice Bob AS ?t MAX 3 . }`
	plan, err := e.Explain(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if want := "multi-queue: false; parallelism: 2 workers (sharded exec runtime) (rule: degree)"; !strings.Contains(plan, want) {
		t.Errorf("sharded: plan missing %q:\n%s", want, plan)
	}
	res, err := e.Execute(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if st := res.CTPStats[0]; st.Parallelism != 2 {
		t.Errorf("sharded: run took %d workers, want 2", st.Parallelism)
	}
}

func TestExplainPredicateSeeds(t *testing.T) {
	g := gen.Sample()
	q := mustParse(t, `SELECT ?w WHERE { CONNECT Alice Bob AS ?w UNI . }`)
	plan, err := NewDefault(g).Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "selects 1 node(s)") || !strings.Contains(plan, "UNI") {
		t.Fatalf("plan = %s", plan)
	}
}

func TestExplainValidates(t *testing.T) {
	g := gen.Sample()
	bad := mustParse(t, `SELECT ?w WHERE { CONNECT Alice Bob AS ?w . }`)
	bad.Head = []string{"nope"}
	if _, err := NewDefault(g).Explain(bad); err == nil {
		t.Fatal("invalid query should not explain")
	}
}

func TestQueryLevelLimit(t *testing.T) {
	w := gen.Chain(6) // 64 trees
	q := mustParse(t, `SELECT ?w WHERE { CONNECT "1" "7" AS ?w . } LIMIT 10`)
	res, err := NewDefault(w.Graph).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 10 {
		t.Fatalf("rows = %d, want 10", res.Table.NumRows())
	}
}

func TestParallelCTPEvaluation(t *testing.T) {
	g := gen.Sample()
	src := `
SELECT ?x ?w1 ?w2 WHERE {
  ?x citizenOf USA .
  CONNECT ?x France AS ?w1 MAX 3 .
  CONNECT ?x "National Liberal Party" AS ?w2 MAX 3 .
}`
	q := mustParse(t, src)
	seq, err := New(g, engineOpts(false)).Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(g, engineOpts(true)).Execute(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Table.NumRows() != par.Table.NumRows() {
		t.Fatalf("parallel rows %d != sequential %d", par.Table.NumRows(), seq.Table.NumRows())
	}
	if len(par.CTPStats) != 2 {
		t.Fatalf("stats = %d", len(par.CTPStats))
	}
	// Every tree handle must resolve after rebasing.
	for _, col := range []string{"w1", "w2"} {
		ci := par.Table.Column(col)
		for i := 0; i < par.Table.NumRows(); i++ {
			if par.Tree(par.Table.Row(i)[ci]) == nil {
				t.Fatalf("unresolvable handle in %s after rebasing", col)
			}
		}
	}
	// Tree columns must reference trees containing the right anchors: w2
	// trees must contain the party node.
	party, _ := g.NodeByLabel("National Liberal Party")
	ci := par.Table.Column("w2")
	for i := 0; i < par.Table.NumRows(); i++ {
		tr := par.Tree(par.Table.Row(i)[ci])
		if tr.Size() > 0 && !tr.ContainsNode(party) {
			t.Fatal("w2 tree does not contain the party: handle rebasing broken")
		}
	}
}

func engineOpts(parallel bool) Options {
	return Options{Algorithm: core.MoLESP, Parallel: parallel, DefaultTimeout: 5 * time.Second}
}
