package bgp

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ctpquery/internal/eql"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

// benchKG is gen.YAGOLike(20000, 1): 80k entities, built once.
var benchKG = sync.OnceValue(func() *gen.KG { return gen.YAGOLike(20000, 1) })

func benchEvaluate(b *testing.B, g *graph.Graph, q eql.BGP) Stats {
	b.Helper()
	b.ReportAllocs()
	var st Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb, s, err := EvaluateContext(context.Background(), g, q)
		if err != nil || tb.NumRows() == 0 {
			b.Fatalf("rows %d, err %v", tb.NumRows(), err)
		}
		st = s
	}
	b.ReportMetric(float64(st.Examined), "examined/op")
	return st
}

// The kg-explore BGP-only shape: the members of one organization, then
// whom they know. The join must cost the members' degrees, not the knows
// label — asserted on the edge count, which does not depend on the clock.
func BenchmarkBGPSelectiveJoin(b *testing.B) {
	kg := benchKG()
	g := kg.Graph
	knows, _ := g.LabelIDOf("knows")
	memberOf, _ := g.LabelIDOf("memberOf")
	// An organization with members who know someone, so the result is not
	// empty; the generator's hubs make the first organizations qualify.
	var org graph.NodeID = -1
	degrees := 0
	for _, o := range kg.Orgs {
		sum, knowing := 0, 0
		for _, e := range g.In(o) {
			if g.EdgeLabelID(e) != memberOf {
				continue
			}
			sum += len(g.Out(g.Source(e)))
			for _, k := range g.Out(g.Source(e)) {
				if g.EdgeLabelID(k) == knows {
					knowing++
				}
			}
		}
		if knowing > 0 {
			org, degrees = o, len(g.In(o))+sum
			break
		}
	}
	if org < 0 {
		b.Fatal("no organization with a member who knows someone")
	}
	q, err := eql.Parse(fmt.Sprintf(`SELECT ?p ?q WHERE { ?p memberOf %s . ?p knows ?q . }`, g.NodeLabel(org)))
	if err != nil {
		b.Fatal(err)
	}
	st := benchEvaluate(b, g, q.BGPs[0])
	if label := len(g.EdgesWithLabel(knows)); st.Examined > degrees || st.Examined*10 > label {
		b.Fatalf("examined %d edges; want at most the %d incident to the organization and its members, far below the %d knows edges",
			st.Examined, degrees, label)
	}
}

// Every person's home and birthplace: the bound set is the whole livesIn
// label, so the second pattern is scanned and hash-joined.
func BenchmarkBGPUnselectiveJoin(b *testing.B) {
	g := benchKG().Graph
	q, err := eql.Parse(`SELECT ?p ?h ?c WHERE { ?p livesIn ?h . ?p bornIn ?c . }`)
	if err != nil {
		b.Fatal(err)
	}
	st := benchEvaluate(b, g, q.BGPs[0])
	livesIn, _ := g.LabelIDOf("livesIn")
	bornIn, _ := g.LabelIDOf("bornIn")
	if want := len(g.EdgesWithLabel(livesIn)) + len(g.EdgesWithLabel(bornIn)); st.Examined != want {
		b.Fatalf("examined %d edges, want the two labels' %d (scan, then hash join)", st.Examined, want)
	}
}
