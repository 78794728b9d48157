package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// The exploration pin: sequential MoLESP on the five fig11-grid shapes of
// the repository benchmark must create, prune, pop and keep exactly these
// many provenances. A kernel optimisation that changes any of them changed
// the paper's exploration, not only its cost.
func TestFig11GridExplorationPinned(t *testing.T) {
	pins := []struct {
		w                           *gen.Workload
		created, pruned, pops, kept int
		long                        bool
	}{
		{gen.Line(10, 2, gen.Alternate), 367, 111, 54, 256, false},
		{gen.Star(5, 4, gen.Alternate), 710, 364, 320, 346, false},
		{gen.Comb(4, 2, 3, 2, gen.Alternate), 1938, 774, 66, 1164, false},
		{gen.Star(8, 2, gen.Alternate), 7105, 4810, 2048, 2295, false},
		{gen.Star(10, 2, gen.Alternate), 48961, 37708, 10240, 11253, true},
	}
	for _, p := range pins {
		if p.long && testing.Short() {
			continue
		}
		rs, st := run(t, p.w.Graph, Explicit(p.w.Seeds...), Options{Algorithm: MoLESP})
		got := fmt.Sprintf("created=%d pruned=%d pops=%d kept=%d", st.Created, st.Pruned, st.QueuePops, st.Kept())
		want := fmt.Sprintf("created=%d pruned=%d pops=%d kept=%d", p.created, p.pruned, p.pops, p.kept)
		if got != want || rs.Len() != 1 {
			t.Errorf("%s: %s results=%d, want %s results=1", p.w.Name, got, rs.Len(), want)
		}
	}
}

// satWord is only a prefilter: for every pair of same-rooted trees a
// search indexed, a pair mergeable accepts must pass the word test
// mergeAll applies before calling it. The second half runs m = 70 seed
// sets — a two-word Sat, where the stored word is merely a necessary
// condition — against the brute-force enumerator.
func TestPartnerPrefilterNeverSkipsAMergeablePair(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	check := func(k *Kernel) (pairs, accepted int) {
		for root, entries := range runsByRoot(k) {
			rootWord := satWord(k.s.si.mask(root))
			for _, a := range entries {
				free := a.sat &^ rootWord
				for _, b := range entries {
					if a.t == b.t {
						continue
					}
					pairs++
					if !k.mergeable(a.t, b.t, k.s.si.mask(root)) {
						continue
					}
					accepted++
					if free&b.sat != 0 {
						t.Fatalf("prefilter skips mergeable pair at root %d: %v + %v", root, a.t, b.t)
					}
				}
			}
		}
		return pairs, accepted
	}
	var pairs, accepted int
	for trial := 0; trial < 40; trial++ {
		g := gen.Random(10, 14, []string{"a", "b"}, rng)
		m := 2 + rng.Intn(4)
		seeds := Explicit(gen.RandomSeedSets(g, m, 3, rng)...)
		for _, alg := range []Algorithm{GAM, MoLESP} {
			p, a := check(&searchSched(g, seeds, Options{Algorithm: alg}).k)
			pairs, accepted = pairs+p, accepted+a
		}
	}
	if accepted == 0 || accepted == pairs {
		t.Fatalf("degenerate sample: %d of %d pairs mergeable", accepted, pairs)
	}

	// m = 70 on a path of 8 nodes plus a chord. n0 carries sets 0-9 and
	// 21-63, n4 sets 10-20, and n6 and n7 both carry sets 64-69 — bits of
	// Sat's second word only, so two same-rooted trees holding n6 and n7
	// pass the word test and only mergeable keeps them apart.
	b := graph.NewBuilder()
	var nodes []graph.NodeID
	for i := 0; i < 8; i++ {
		nodes = append(nodes, b.AddNode(fmt.Sprintf("n%d", i)))
	}
	for i := 0; i+1 < len(nodes); i++ {
		b.AddEdge(nodes[i], "p", nodes[i+1])
	}
	b.AddEdge(nodes[2], "q", nodes[5])
	b.AddEdge(nodes[5], "q", nodes[7])
	g := b.Build()
	seeds := make([]SeedSet, 70)
	for i := range seeds {
		switch {
		case i >= 64:
			seeds[i].Nodes = []graph.NodeID{nodes[6], nodes[7]}
		case i >= 10 && i <= 20:
			seeds[i].Nodes = []graph.NodeID{nodes[4]}
		default:
			seeds[i].Nodes = []graph.NodeID{nodes[0]}
		}
	}
	want := referenceResults(g, seeds, g.NumEdges())
	for _, alg := range []Algorithm{GAM, MoLESP} {
		s := searchSched(g, seeds, Options{Algorithm: alg})
		if got := resultKeys(s.collector.finish()); len(want) < 2 || fmt.Sprint(sortedKeys(got)) != fmt.Sprint(sortedKeys(want)) {
			t.Fatalf("%v, m=70: %d results, reference has %d", alg, len(got), len(want))
		}
		k := &s.k
		check(k)
		// The slot table's multi-word path: under LESP a seed path from n6
		// or n7 sets ss bits 64-69, in the second word of a two-word ss.
		if alg == MoLESP {
			wide := false
			for root := range runsByRoot(k) {
				ss := k.roots.find(root).ss
				wide = wide || (len(ss) == 2 && ss[1] != 0)
			}
			if !wide {
				t.Fatal("MoLESP, m=70: no seed signature reached its second word")
			}
		}
		wordOnly := 0
		for root, entries := range runsByRoot(k) {
			for _, a := range entries {
				for _, b := range entries {
					if a.t.Size() > 0 && b.t.Size() > 0 && a.sat&b.sat == 0 && a.t.Sat.IntersectsOutside(b.t.Sat, k.s.si.mask(root)) {
						wordOnly++
					}
				}
			}
		}
		if wordOnly == 0 {
			t.Fatalf("%v, m=70: no pair passed the word test and failed Merge2 on the second word", alg)
		}
	}
}

// searchSched runs a caller-goroutine search to completion on a scheduler
// of its own and returns it, never reset: the kernel with its tables
// intact, and the collector.
func searchSched(g *graph.Graph, seeds []SeedSet, opts Options) *callerSched {
	s := new(callerSched)
	s.run(NewSetup(g, seeds, opts))
	return s
}

// runsByRoot reads TreesRootedIn out of the kernel's root table.
func runsByRoot(k *Kernel) map[graph.NodeID][]partner {
	out := map[graph.NodeID][]partner{}
	for _, r := range k.roots.recs {
		if len(r.val.run) > 0 {
			out[r.key] = r.val.run
		}
	}
	return out
}

// Figure 3: A-1-2-B merged with B-3-C at root B. Both trees carry B's seed
// set in Sat; Merge2 must exempt the shared root's sets, in the word
// prefilter as in mergeable.
func TestFigure3MergeAtSeedRoot(t *testing.T) {
	w := gen.Line(3, 1, gen.Forward) // A x B y C
	seeds := Explicit(w.Seeds...)
	s := searchSched(w.Graph, seeds, Options{Algorithm: MoLESP})
	k, bNode := &s.k, w.Seeds[1][0]
	rootWord := satWord(k.s.si.mask(bNode))
	if rootWord == 0 {
		t.Fatal("B is a seed: its mask must be non-empty")
	}
	merged := false
	atB := k.roots.find(bNode).run
	for _, a := range atB {
		for _, b := range atB {
			if a.t.Size() != 2 || b.t.Size() != 2 || a.t == b.t || a.t.Kind == tree.Merge || b.t.Kind == tree.Merge {
				continue
			}
			if a.sat&b.sat == 0 {
				t.Fatalf("both halves contain B and must share its bit: %b %b", a.sat, b.sat)
			}
			if (a.sat&^rootWord)&b.sat != 0 || !k.mergeable(a.t, b.t, k.s.si.mask(bNode)) {
				t.Fatalf("A-x-B and B-y-C must merge at root B")
			}
			merged = true
		}
	}
	if !merged {
		t.Fatal("no pair of 2-edge halves rooted at B was indexed")
	}
	if rs := s.collector.finish(); rs.Len() != 1 || rs.Results[0].Tree.Size() != 4 {
		t.Fatalf("Figure 3 result missing: %d results", rs.Len())
	}
}

// A pre-build probe compares a candidate merge against history entries
// behind the same signature by walking the two parents' edge lists. Two
// different edge sets forced under one signature must stay distinct: the
// second is new and must be kept.
func TestPreBuildProbeSurvivesSignatureCollision(t *testing.T) {
	const sig = 42
	a, b := []graph.EdgeID{1, 4}, []graph.EdgeID{2, 9}
	stored := []graph.EdgeID{1, 2, 4, 9}
	other := []graph.EdgeID{1, 2, 4, 8}
	hist := new(SigSet)
	hist.Add(sig, unrootedRef, other)
	if hist.HasUnion(sig, unrootedRef, a, b) {
		t.Fatal("a different edge set behind the same signature reported as present")
	}
	if !hist.Add(sig, unrootedRef, stored) {
		t.Fatal("colliding but distinct edge set must be claimable")
	}
	if !hist.HasUnion(sig, unrootedRef, a, b) || !hist.HasUnion(sig, unrootedRef, b, a) {
		t.Fatal("colliding entry not found through the parents' edge lists")
	}
	if hist.HasUnion(sig, 7, a, b) || hist.HasUnion(sig, unrootedRef, a, []graph.EdgeID{2}) {
		t.Fatal("root or length mismatch reported as present")
	}
	// End to end on Figure 3's line A-x-B-y-C: a foreign edge set planted
	// under the result's signature sends both the probe and the claim
	// through the collision check, and the result must still be found.
	w := gen.Line(3, 1, gen.Forward)
	all := []graph.EdgeID{0, 1, 2, 3}
	s := new(callerSched)
	s.histEdge.Add(tree.EdgeSetSig(all), unrootedRef, []graph.EdgeID{100, 101, 102, 103})
	s.run(NewSetup(w.Graph, Explicit(w.Seeds...), Options{Algorithm: MoLESP}))
	if rs := s.collector.finish(); rs.Len() != 1 || !slices.Equal(rs.Results[0].Tree.Edges, all) {
		t.Fatalf("result lost behind a signature collision: %d results", rs.Len())
	}
	behind := 0
	for _, r := range s.histEdge.ids {
		if r.sig == tree.EdgeSetSig(all) {
			behind++
		}
	}
	if behind != 2 {
		t.Fatalf("%d identities behind the result's signature, want the planted one and the result", behind)
	}
}

// BenchmarkMergePartnerScan is Algorithm 5 at its worst in the benchmark
// grid: Star(10,2) under MoLESP scans ~3.1M partner pairs to build ~34k
// merges.
func BenchmarkMergePartnerScan(b *testing.B) {
	w := gen.Star(10, 2, gen.Alternate)
	seeds := Explicit(w.Seeds...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Search(w.Graph, seeds, Options{Algorithm: MoLESP}); err != nil {
			b.Fatal(err)
		}
	}
}

// fig11-grid's five searches, smallest first, each run once on one fresh
// scheduler — how the benchmark's core layer counts core.allocs_per_search
// — make each table outgrow the arrays the search before left it. A table
// that outgrows its backing array gets one four times as long, and its
// record array room for all that array can take, so slot and record
// arrays are made every other doubling and the plan makes at most 39.4
// allocations per search (36.4 measured). Plain doubling makes 42.4, and
// records appended one by one 43.0.
func TestFig11PlanGrowthAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Star m=10 four times")
	}
	var gs []*graph.Graph
	var seeds [][]SeedSet
	for _, w := range []*gen.Workload{
		gen.Line(10, 2, gen.Alternate),
		gen.Star(5, 4, gen.Alternate),
		gen.Comb(4, 2, 3, 2, gen.Alternate),
		gen.Star(8, 2, gen.Alternate),
		gen.Star(10, 2, gen.Alternate),
	} {
		gs, seeds = append(gs, w.Graph), append(seeds, Explicit(w.Seeds...))
	}
	opts := Options{Algorithm: MoLESP}
	allocs := testing.AllocsPerRun(3, func() {
		s := new(callerSched)
		for i := range gs {
			s.search(NewSetup(gs[i], seeds[i], opts))
		}
	}) / float64(len(gs))
	t.Logf("%.2f allocations per search", allocs)
	if allocs > 39.4 {
		t.Fatalf("fig11-grid's plan on a fresh scheduler made %.2f allocations per search, want <= 39.4", allocs)
	}
}
