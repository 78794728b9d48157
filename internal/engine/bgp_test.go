package engine

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"ctpquery/internal/gen"
)

// Step (A)'s work reaches the Result: a BGP that scans a label reports the
// label's edges as examined, and a query without a BGP reports nothing.
func TestBGPWorkIsCounted(t *testing.T) {
	g := gen.YAGOLike(500, 1).Graph
	res, _ := exec(t, g, `SELECT ?p ?o WHERE { ?p worksFor ?o . }`)
	l, _ := g.LabelIDOf("worksFor")
	if want := len(g.EdgesWithLabel(l)); res.BGPExamined != want || res.BGPRows < res.Table.NumRows() {
		t.Errorf("label scan: examined %d, rows %d; want %d examined and at least the %d result rows",
			res.BGPExamined, res.BGPRows, want, res.Table.NumRows())
	}
	res, _ = exec(t, g, `SELECT ?w WHERE { CONNECT person1 person2 AS ?w MAX 2 . }`)
	if res.BGPExamined != 0 || res.BGPRows != 0 {
		t.Errorf("no BGP: examined %d, rows %d; want 0, 0", res.BGPExamined, res.BGPRows)
	}
}

const fourHops = `SELECT ?a ?e WHERE { ?a r ?b . ?b r ?c . ?c r ?d . ?d r ?e . }`

// Cancelling while step (A) is still joining aborts the query promptly
// with context.Canceled: on 1500 nodes with 15000 "r" edges the four-hop
// query binds about 1500 * 10^4 rows, which are never materialized.
func TestCancelDuringBGP(t *testing.T) {
	g := gen.Random(1500, 15000, []string{"r"}, rand.New(rand.NewSource(3)))
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	start := time.Now()
	res, err := NewDefault(g).ExecuteContext(ctx, mustParse(t, fourHops))
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("result %v, err %v; want context.Canceled", res != nil, err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v", d)
	}
}

// An expired deadline is not a cancellation: the BGP is evaluated in
// full and the CTP returns what its (exhausted) budget allowed, flagged
// as timed out.
func TestExpiredDeadlineStillEvaluatesBGP(t *testing.T) {
	g := gen.Sample()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := NewDefault(g).ExecuteContext(ctx, mustParse(t, `
SELECT ?x ?o ?w WHERE {
  ?x citizenOf USA .
  ?x founded ?o .
  CONNECT ?x France AS ?w MAX 3 .
}`))
	if err != nil {
		t.Fatalf("expired deadline: %v; want partial results", err)
	}
	if !res.TimedOut() || res.BGPExamined == 0 {
		t.Errorf("timed out %v, BGP examined %d; want a timed-out search over a fully evaluated BGP", res.TimedOut(), res.BGPExamined)
	}
}
