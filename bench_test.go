// Benchmarks regenerating each table and figure of the paper's evaluation
// as testing.B targets (run with `go test -bench=. -benchmem`); each bench
// measures representative points of the corresponding experiment, while
// cmd/expdriver prints the full sweep in the paper's row format.
// DESIGN.md §4 records the expected shapes.
package ctpquery

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ctpquery/internal/baselines"
	"ctpquery/internal/bench"
	"ctpquery/internal/core"
	"ctpquery/internal/engine"
	"ctpquery/internal/eql"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

const benchTimeout = 2 * time.Second

// searchOnce runs one CTP search and reports provenance/result metrics.
func searchOnce(b *testing.B, w *gen.Workload, alg core.Algorithm, filters eql.Filters) {
	b.Helper()
	filters.Timeout = benchTimeout
	var kept, results int
	for i := 0; i < b.N; i++ {
		rs, st, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
			Algorithm: alg, Filters: filters})
		if err != nil {
			b.Fatal(err)
		}
		kept, results = st.Kept(), rs.Len()
	}
	b.ReportMetric(float64(kept), "provenances")
	b.ReportMetric(float64(results), "results")
}

// Figure 2: exponential result counts on chain graphs.
func BenchmarkFig2ChainExplosion(b *testing.B) {
	for _, n := range []int{6, 8, 10} {
		w := gen.Chain(n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			searchOnce(b, w, core.MoLESP, eql.Filters{})
		})
	}
}

// Figure 10 (a, b, c): complete baselines on Line, Comb, Star.
func benchFig10(b *testing.B, workloads map[string]*gen.Workload) {
	for name, w := range workloads {
		for _, alg := range []core.Algorithm{core.BFT, core.BFTM, core.BFTAM, core.GAM} {
			b.Run(name+"/"+alg.String(), func(b *testing.B) {
				searchOnce(b, w, alg, eql.Filters{})
			})
		}
	}
}

func BenchmarkFig10aLineBaselines(b *testing.B) {
	benchFig10(b, map[string]*gen.Workload{
		"m=3_sL=4":  gen.Line(3, 3, gen.Alternate),
		"m=5_sL=3":  gen.Line(5, 2, gen.Alternate),
		"m=10_sL=2": gen.Line(10, 1, gen.Alternate),
	})
}

func BenchmarkFig10bCombBaselines(b *testing.B) {
	benchFig10(b, map[string]*gen.Workload{
		"nA=2_sL=3": gen.Comb(2, 2, 3, 2, gen.Alternate),
		"nA=4_sL=2": gen.Comb(4, 2, 2, 2, gen.Alternate),
	})
}

func BenchmarkFig10cStarBaselines(b *testing.B) {
	benchFig10(b, map[string]*gen.Workload{
		"m=3_sL=4": gen.Star(3, 4, gen.Alternate),
		"m=5_sL=3": gen.Star(5, 3, gen.Alternate),
	})
}

// Figure 11 (a-f): GAM pruning variants; the provenances metric is the
// (d)-(f) series, ns/op the (a)-(c) series.
func benchFig11(b *testing.B, workloads map[string]*gen.Workload) {
	for name, w := range workloads {
		for _, alg := range core.GAMFamily() {
			b.Run(name+"/"+alg.String(), func(b *testing.B) {
				searchOnce(b, w, alg, eql.Filters{})
			})
		}
	}
}

func BenchmarkFig11LineVariants(b *testing.B) {
	benchFig11(b, map[string]*gen.Workload{
		"m=3_sL=6":  gen.Line(3, 5, gen.Alternate),
		"m=10_sL=3": gen.Line(10, 2, gen.Alternate),
	})
}

func BenchmarkFig11CombVariants(b *testing.B) {
	benchFig11(b, map[string]*gen.Workload{
		"nA=4_sL=3": gen.Comb(4, 2, 3, 2, gen.Alternate),
		"nA=6_sL=2": gen.Comb(6, 2, 2, 2, gen.Alternate),
	})
}

func BenchmarkFig11StarVariants(b *testing.B) {
	benchFig11(b, map[string]*gen.Workload{
		"m=5_sL=4":  gen.Star(5, 4, gen.Alternate),
		"m=10_sL=2": gen.Star(10, 2, gen.Alternate),
	})
}

// The parallel runtime (internal/exec) across worker counts on a
// merge-heavy Figure 11 star, which this package's TestMain turns on for
// every search with a worker bound (production searches never use it,
// DESIGN.md §6): it keeps the runtime itself from rotting. Star(10,2) is a
// shape where K = 2 never pays, so it shows no scaling, and wall time on a
// single-core runner stays flat (workers timeslice).
// BenchmarkParallelRuntimeKG times the runtime where it comes closest to
// paying.
func BenchmarkParallelRuntimeStar(b *testing.B) {
	w := gen.Star(10, 2, gen.Alternate)
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, _, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
					Algorithm:   core.MoLESP,
					Parallelism: k,
					Filters:     eql.Filters{Timeout: benchTimeout},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The parallel runtime against the caller's goroutine on the kind of
// search where the runtime gains most (DESIGN.md §6): a three-member
// MoLESP `MAX 4` search on YAGOLike(5000) of 120,000–300,000 created
// trees, at K = 0 and at K = 2 on two workers from its start. No ctpmark
// workload runs a search this large. The graph and the draw are outside
// the timer.
func BenchmarkParallelRuntimeKG(b *testing.B) {
	const minTrees, maxTrees = 120000, 300000
	g := gen.YAGOLike(5000, 1).Graph
	rng := rand.New(rand.NewSource(4))
	opts := core.Options{Algorithm: core.MoLESP, Filters: eql.Filters{MaxEdges: 4}, MaxTrees: maxTrees}
	var seeds []core.SeedSet
	for try := 0; seeds == nil; try++ {
		if try == 100 {
			b.Fatal("no MAX 4 search of 120,000-300,000 trees")
		}
		hub := graph.NodeID(rng.Intn(g.NumNodes()))
		var around []graph.NodeID
		for _, e := range g.IncidentEdges(hub) {
			if o := g.Other(e, hub); o != hub && !slices.Contains(around, o) {
				around = append(around, o)
			}
		}
		if len(around) < 3 {
			continue
		}
		cand := core.Explicit(around[0:1], around[1:2], around[2:3])
		_, st, err := core.Search(g, cand, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Truncated && st.Created >= minTrees {
			seeds = cand
		}
	}
	opts.MaxTrees = 0
	for _, k := range []int{0, 2} {
		opts.Parallelism = k
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			var st *core.Stats
			for i := 0; i < b.N; i++ {
				var err error
				if _, st, err = core.Search(g, seeds, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Created), "trees/op")
			b.ReportMetric(float64(st.Parallelism), "workers")
		})
	}
}

// Figure 12: GAM and MoLESP (UNI, LIMIT 1) vs the QGSTP approximation on
// a DBPedia-like graph, by number of seed sets.
func BenchmarkFig12QGSTPComparison(b *testing.B) {
	kg := gen.DBPediaLike(1000, 1)
	rng := rand.New(rand.NewSource(2))
	wl := gen.ConnectableCTPWorkload(kg, gen.MHistogram, 40, 3, rng)
	for m := 2; m <= 6; m++ {
		queries := wl[m]
		if len(queries) == 0 {
			continue
		}
		seeds := queries[0]
		b.Run(fmt.Sprintf("m=%d/QGSTP", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baselines.QGSTP(kg.Graph, seeds)
			}
		})
		for _, alg := range []core.Algorithm{core.GAM, core.MoLESP} {
			b.Run(fmt.Sprintf("m=%d/%s", m, alg), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bench.Fig12Point(kg.Graph, seeds, alg, benchTimeout)
				}
			})
		}
	}
}

// Figures 13 and 14: the CDF extended-query benchmark across systems.
func benchCDF(b *testing.B, m int) {
	for _, sl := range []int{3, 6} {
		minSL := sl
		c := gen.NewCDF(m, 8, 64, minSL)
		for _, sys := range []string{"MoLESP", "UNI-MoLESP", "Postgres", "Virtuoso-any", "Neo4j"} {
			b.Run(fmt.Sprintf("SL=%d/%s", sl, sys), func(b *testing.B) {
				var answers int
				for i := 0; i < b.N; i++ {
					for _, r := range bench.RunCDFSystems(c, benchTimeout) {
						if r.System == sys || (m == 3 && r.System == sys+"+stitch") {
							answers = r.Answers
						}
					}
				}
				b.ReportMetric(float64(answers), "answers")
			})
		}
	}
}

func BenchmarkFig13CDFm2(b *testing.B) { benchCDF(b, 2) }
func BenchmarkFig14CDFm3(b *testing.B) { benchCDF(b, 3) }

// Table 1: J1-J3 on the YAGO-like graph across systems.
func BenchmarkTable1YagoQueries(b *testing.B) {
	kg := gen.YAGOLike(500, 7)
	b.Run("all-systems", func(b *testing.B) {
		var rows []bench.Table1Row
		for i := 0; i < b.N; i++ {
			rows = bench.RunTable1(kg, benchTimeout)
		}
		b.ReportMetric(float64(len(rows)), "cells")
	})
}

// --- Ablation benches for the design choices DESIGN.md calls out ---

// Ablation: edge-set pruning (ESP) vs rooted-tree dedup only (GAM).
func BenchmarkAblationEdgeSetPruning(b *testing.B) {
	w := gen.Comb(4, 2, 3, 2, gen.Alternate)
	for _, alg := range []core.Algorithm{core.GAM, core.ESP} {
		b.Run(alg.String(), func(b *testing.B) { searchOnce(b, w, alg, eql.Filters{}) })
	}
}

// Ablation: Mo-tree injection cost/benefit (ESP vs MoESP on stars, where
// both are complete under the default order).
func BenchmarkAblationMoInjection(b *testing.B) {
	w := gen.Star(8, 3, gen.Alternate)
	for _, alg := range []core.Algorithm{core.ESP, core.MoESP} {
		b.Run(alg.String(), func(b *testing.B) { searchOnce(b, w, alg, eql.Filters{}) })
	}
}

// Ablation: the LESP exemption's overhead on top of MoESP.
func BenchmarkAblationLESPExemption(b *testing.B) {
	w := gen.Star(8, 3, gen.Alternate)
	for _, alg := range []core.Algorithm{core.MoESP, core.MoLESP} {
		b.Run(alg.String(), func(b *testing.B) { searchOnce(b, w, alg, eql.Filters{}) })
	}
}

// Ablation: multi-queue scheduling under seed-set skew (Section 4.9).
func BenchmarkAblationMultiQueue(b *testing.B) {
	kg := gen.YAGOLike(800, 3)
	g := kg.Graph
	big := kg.People
	small := []graph.NodeID{kg.Orgs[0]}
	seeds := core.Explicit(big, small)
	for _, mq := range []bool{false, true} {
		name := "single-queue"
		if mq {
			name = "multi-queue"
		}
		b.Run(name, func(b *testing.B) {
			var results int
			for i := 0; i < b.N; i++ {
				rs, _, err := core.Search(g, seeds, core.Options{
					Algorithm:  core.MoLESP,
					MultiQueue: mq,
					Filters:    eql.Filters{MaxEdges: 3, Limit: 50, Timeout: benchTimeout},
				})
				if err != nil {
					b.Fatal(err)
				}
				results = rs.Len()
			}
			b.ReportMetric(float64(results), "results")
		})
	}
}

// Ablation: filter push-down — LABEL restriction inside the search vs
// post-filtering a full enumeration.
func BenchmarkAblationFilterPushdown(b *testing.B) {
	w := gen.Chain(10)
	b.Run("pushed-LABEL", func(b *testing.B) {
		searchOnce(b, w, core.MoLESP, eql.Filters{Labels: []string{"a"}})
	})
	b.Run("post-filter", func(b *testing.B) {
		var kept int
		for i := 0; i < b.N; i++ {
			rs, _, err := core.Search(w.Graph, core.Explicit(w.Seeds...), core.Options{
				Algorithm: core.MoLESP, Filters: eql.Filters{Timeout: benchTimeout}})
			if err != nil {
				b.Fatal(err)
			}
			kept = 0
			for _, r := range rs.Results {
				ok := true
				for _, e := range r.Tree.Edges {
					if w.Graph.EdgeLabel(e) != "a" {
						ok = false
						break
					}
				}
				if ok {
					kept++
				}
			}
		}
		b.ReportMetric(float64(kept), "results")
	})
}

// End-to-end engine benchmark: the full EQL pipeline (BGP + CTP + join)
// on the running example.
func BenchmarkEngineQ1(b *testing.B) {
	g := gen.Sample()
	q, err := eql.Parse(`
SELECT ?x ?y ?z ?w WHERE {
  ?x citizenOf USA .
  ?y citizenOf France .
  ?z citizenOf France .
  FILTER type(?x) = entrepreneur .
  FILTER type(?y) = entrepreneur .
  FILTER type(?z) = politician .
  CONNECT ?x ?y ?z AS ?w MAX 5 .
}`)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.NewDefault(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// Serving-path result cache (internal/qcache through the facade): the
// cold path runs the full BGP + CTP pipeline, the hit path is a lookup.
// The CI bench smoke runs both so the cache layer cannot rot; ctpmark's
// qcache.hit_us and qcache.miss_overhead_us on serve-hot measure the same
// contrast under traffic.
func benchCacheQuery(b *testing.B) (*DB, *Query) {
	b.Helper()
	g := RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := Open(g, nil, WithCache(64<<20))
	if err != nil {
		b.Fatal(err)
	}
	q, err := ParseQuery("SELECT ?w WHERE { CONNECT n1 n400 AS ?w MAX 5 . }")
	if err != nil {
		b.Fatal(err)
	}
	return db, q
}

func BenchmarkCacheHit(b *testing.B) {
	db, q := benchCacheQuery(b)
	ctx := context.Background()
	if _, err := db.Run(ctx, q); err != nil { // warm the entry
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, info, err := db.RunWithInfo(ctx, q)
		if err != nil {
			b.Fatal(err)
		}
		if !info.Hit || res.Len() == 0 {
			b.Fatalf("iteration was not a cache hit (info %+v, %d rows)", info, res.Len())
		}
	}
}

func BenchmarkCacheMiss(b *testing.B) {
	// A 1-byte budget rejects every admission, so the same query through
	// one stable DB is a genuine miss on every iteration: the measurement
	// is lookup miss + singleflight bookkeeping + search + admission
	// attempt, with no per-iteration DB setup in the timing.
	g := RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := Open(g, nil, WithCache(1))
	if err != nil {
		b.Fatal(err)
	}
	q, err := ParseQuery("SELECT ?w WHERE { CONNECT n1 n400 AS ?w MAX 5 . }")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, info, err := db.RunWithInfo(ctx, q); err != nil {
			b.Fatal(err)
		} else if info.Hit {
			b.Fatal("cold run hit a cache")
		}
	}
}
