package core_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// boundedCounters renders every effort counter of a search and a digest of
// its sorted result edge sets.
func boundedCounters(rs *core.ResultSet, st *core.Stats) string {
	sets := make([]string, 0, rs.Len())
	for _, r := range rs.Results {
		sets = append(sets, fmt.Sprint(r.Tree.Edges))
	}
	slices.Sort(sets)
	h := fnv.New64a()
	h.Write([]byte(strings.Join(sets, ";")))
	return fmt.Sprintf("inits=%d grows=%d merges=%d mo=%d created=%d pruned=%d spared=%d pops=%d "+
		"recycled=%d peakTrees=%d peakQueue=%d results=%d digest=%016x",
		st.Inits, st.Grows, st.Merges, st.MoTrees, st.Created, st.Pruned, st.Spared, st.QueuePops,
		st.Recycled, st.PeakTrees, st.PeakQueueLen, st.Results, h.Sum64())
}

// boundedInput is one search shape of TestBoundedSearchCountersPinned.
type boundedInput struct {
	name  string
	g     *graph.Graph
	seeds []core.SeedSet
	prio  core.PriorityFunc
}

// boundedInputs are the searches of TestBoundedSearchCountersPinned: two
// fixed random graphs with three and four seed sets, kgSearch, and the
// first graph again under an order that pops larger trees first, so that
// trees at the bound are admitted before smaller ones merge.
func boundedInputs(t *testing.T) []boundedInput {
	var in []boundedInput
	rng := rand.New(rand.NewSource(35))
	for i, shape := range []struct{ n, e, m int }{{24, 48, 3}, {18, 45, 4}} {
		g := gen.Random(shape.n, shape.e, []string{"a", "b"}, rng)
		in = append(in, boundedInput{fmt.Sprintf("random-%d", i), g, core.Explicit(gen.RandomSeedSets(g, shape.m, 2, rng)...), nil})
	}
	g, seeds, _ := kgSearch(t)
	largerFirst := func(t *tree.Tree, e graph.EdgeID) float64 { return float64(e%3) - float64(t.Size()) }
	return append(in, boundedInput{"kg", g, seeds, nil}, boundedInput{"random-0 larger-first", in[0].g, in[0].seeds, largerFirst})
}

// Every counter of a MAX-bounded search is pinned, for each GAM-family
// algorithm, MAX 1 to 4, on the caller's goroutine and on one worker: a
// kernel change that builds fewer trees at the bound (or lays its tables
// out differently) must explore exactly as before.
func TestBoundedSearchCountersPinned(t *testing.T) {
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(boundedPins), "\n") {
		id, counters, _ := strings.Cut(strings.TrimSpace(line), ": ")
		want[id] = counters
	}
	spared, mo := false, false
	for _, in := range boundedInputs(t) {
		for _, alg := range core.GAMFamily() {
			for max := 1; max <= 4; max++ {
				id := fmt.Sprintf("%s %v MAX %d", in.name, alg, max)
				for _, k := range []int{0, 1} {
					opts := core.Options{Algorithm: alg, Filters: eql.Filters{MaxEdges: max}, Parallelism: k, Priority: in.prio}
					rs, st, err := core.Search(in.g, in.seeds, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := boundedCounters(rs, st); got != want[id] {
						t.Errorf("%s K=%d:\n got  %s\n want %s", id, k, got, want[id])
					}
					spared = spared || (max == 3 && st.Spared > 0)
					mo = mo || (max == 3 && st.MoTrees > 0)
				}
			}
		}
	}
	if !spared || !mo {
		t.Errorf("the MAX 3 cases must include a spared tree (%v) and a Mo tree (%v)", spared, mo)
	}
}

// boundedPins holds each search's counters, one line per input, algorithm
// and bound; the search on one worker must read the same line.
const boundedPins = `
random-0 GAM MAX 1: inits=5 grows=23 merges=0 mo=0 created=28 pruned=0 spared=0 pops=23 recycled=0 peakTrees=28 peakQueue=23 results=0 digest=cbf29ce484222325
random-0 GAM MAX 2: inits=5 grows=124 merges=6 mo=0 created=135 pruned=0 spared=0 pops=124 recycled=0 peakTrees=135 peakQueue=101 results=0 digest=cbf29ce484222325
random-0 GAM MAX 3: inits=5 grows=552 merges=72 mo=0 created=633 pruned=4 spared=0 pops=552 recycled=4 peakTrees=629 peakQueue=430 results=7 digest=8157d13cfe1b0091
random-0 GAM MAX 4: inits=5 grows=2131 merges=452 mo=0 created=2606 pruned=18 spared=0 pops=2131 recycled=18 peakTrees=2588 peakQueue=1580 results=42 digest=13ec1637cf4129fd
random-0 ESP MAX 1: inits=5 grows=21 merges=0 mo=0 created=28 pruned=2 spared=0 pops=23 recycled=2 peakTrees=26 peakQueue=23 results=0 digest=cbf29ce484222325
random-0 ESP MAX 2: inits=5 grows=101 merges=6 mo=0 created=126 pruned=14 spared=0 pops=115 recycled=14 peakTrees=112 peakQueue=92 results=0 digest=cbf29ce484222325
random-0 ESP MAX 3: inits=5 grows=378 merges=38 mo=0 created=529 pruned=108 spared=0 pops=455 recycled=108 peakTrees=421 peakQueue=342 results=5 digest=a18cd2bc00224a39
random-0 ESP MAX 4: inits=5 grows=1189 merges=151 mo=0 created=1883 pruned=538 spared=0 pops=1481 recycled=538 peakTrees=1345 peakQueue=1028 results=24 digest=fce8f311239e06dd
random-0 MoESP MAX 1: inits=5 grows=21 merges=0 mo=2 created=30 pruned=2 spared=0 pops=23 recycled=2 peakTrees=28 peakQueue=23 results=0 digest=cbf29ce484222325
random-0 MoESP MAX 2: inits=5 grows=101 merges=6 mo=14 created=140 pruned=14 spared=0 pops=115 recycled=14 peakTrees=126 peakQueue=92 results=0 digest=cbf29ce484222325
random-0 MoESP MAX 3: inits=5 grows=378 merges=40 mo=68 created=602 pruned=111 spared=0 pops=455 recycled=111 peakTrees=491 peakQueue=342 results=7 digest=8157d13cfe1b0091
random-0 MoESP MAX 4: inits=5 grows=1189 merges=169 mo=256 created=2172 pruned=553 spared=0 pops=1481 recycled=553 peakTrees=1619 peakQueue=1028 results=42 digest=13ec1637cf4129fd
random-0 LESP MAX 1: inits=5 grows=21 merges=0 mo=0 created=28 pruned=2 spared=0 pops=23 recycled=2 peakTrees=26 peakQueue=23 results=0 digest=cbf29ce484222325
random-0 LESP MAX 2: inits=5 grows=101 merges=6 mo=0 created=126 pruned=14 spared=0 pops=115 recycled=14 peakTrees=112 peakQueue=92 results=0 digest=cbf29ce484222325
random-0 LESP MAX 3: inits=5 grows=378 merges=57 mo=0 created=529 pruned=89 spared=19 pops=455 recycled=89 peakTrees=440 peakQueue=342 results=5 digest=a18cd2bc00224a39
random-0 LESP MAX 4: inits=5 grows=1270 merges=369 mo=0 created=1976 pruned=332 spared=218 pops=1568 recycled=332 peakTrees=1644 peakQueue=1115 results=24 digest=fce8f311239e06dd
random-0 MoLESP MAX 1: inits=5 grows=21 merges=0 mo=2 created=30 pruned=2 spared=0 pops=23 recycled=2 peakTrees=28 peakQueue=23 results=0 digest=cbf29ce484222325
random-0 MoLESP MAX 2: inits=5 grows=101 merges=6 mo=14 created=140 pruned=14 spared=0 pops=115 recycled=14 peakTrees=126 peakQueue=92 results=0 digest=cbf29ce484222325
random-0 MoLESP MAX 3: inits=5 grows=378 merges=61 mo=68 created=640 pruned=128 spared=21 pops=455 recycled=128 peakTrees=512 peakQueue=342 results=7 digest=8157d13cfe1b0091
random-0 MoLESP MAX 4: inits=5 grows=1270 merges=400 mo=256 created=2667 pruned=736 spared=231 pops=1568 recycled=736 peakTrees=1931 peakQueue=1115 results=42 digest=13ec1637cf4129fd
random-1 GAM MAX 1: inits=7 grows=38 merges=0 mo=0 created=45 pruned=0 spared=0 pops=38 recycled=0 peakTrees=45 peakQueue=38 results=0 digest=cbf29ce484222325
random-1 GAM MAX 2: inits=7 grows=193 merges=27 mo=0 created=227 pruned=0 spared=0 pops=193 recycled=0 peakTrees=227 peakQueue=155 results=0 digest=cbf29ce484222325
random-1 GAM MAX 3: inits=7 grows=827 merges=194 mo=0 created=1046 pruned=18 spared=0 pops=827 recycled=18 peakTrees=1028 peakQueue=634 results=3 digest=2bea3c58b8fbf4d0
random-1 GAM MAX 4: inits=7 grows=3111 merges=961 mo=0 created=4209 pruned=130 spared=0 pops=3111 recycled=130 peakTrees=4079 peakQueue=2284 results=56 digest=b7257e6d8bcac440
random-1 ESP MAX 1: inits=7 grows=33 merges=0 mo=0 created=45 pruned=5 spared=0 pops=38 recycled=5 peakTrees=40 peakQueue=38 results=0 digest=cbf29ce484222325
random-1 ESP MAX 2: inits=7 grows=122 merges=23 mo=0 created=203 pruned=51 spared=0 pops=173 recycled=51 peakTrees=152 peakQueue=135 results=0 digest=cbf29ce484222325
random-1 ESP MAX 3: inits=7 grows=359 merges=95 mo=0 created=692 pruned=231 spared=0 pops=536 recycled=231 peakTrees=461 peakQueue=363 results=3 digest=2bea3c58b8fbf4d0
random-1 ESP MAX 4: inits=7 grows=872 merges=262 mo=0 created=1911 pruned=770 spared=0 pops=1327 recycled=770 peakTrees=1142 peakQueue=791 results=28 digest=8b731287b72b1b1b
random-1 MoESP MAX 1: inits=7 grows=33 merges=0 mo=5 created=50 pruned=5 spared=0 pops=38 recycled=5 peakTrees=45 peakQueue=38 results=0 digest=cbf29ce484222325
random-1 MoESP MAX 2: inits=7 grows=118 merges=27 mo=59 created=266 pruned=55 spared=0 pops=173 recycled=55 peakTrees=211 peakQueue=135 results=0 digest=cbf29ce484222325
random-1 MoESP MAX 3: inits=7 grows=340 merges=115 mo=235 created=965 pruned=268 spared=0 pops=524 recycled=268 peakTrees=697 peakQueue=351 results=3 digest=2bea3c58b8fbf4d0
random-1 MoESP MAX 4: inits=7 grows=785 merges=389 mo=703 created=2782 pruned=898 spared=0 pops=1230 recycled=898 peakTrees=1885 peakQueue=706 results=56 digest=b7257e6d8bcac440
random-1 LESP MAX 1: inits=7 grows=33 merges=0 mo=0 created=45 pruned=5 spared=0 pops=38 recycled=5 peakTrees=40 peakQueue=38 results=0 digest=cbf29ce484222325
random-1 LESP MAX 2: inits=7 grows=122 merges=23 mo=0 created=203 pruned=51 spared=0 pops=173 recycled=51 peakTrees=152 peakQueue=135 results=0 digest=cbf29ce484222325
random-1 LESP MAX 3: inits=7 grows=359 merges=125 mo=0 created=692 pruned=201 spared=30 pops=536 recycled=201 peakTrees=491 peakQueue=363 results=3 digest=2bea3c58b8fbf4d0
random-1 LESP MAX 4: inits=7 grows=919 merges=506 mo=0 created=2004 pruned=572 spared=244 pops=1397 recycled=572 peakTrees=1433 peakQueue=861 results=28 digest=8b731287b72b1b1b
random-1 MoLESP MAX 1: inits=7 grows=33 merges=0 mo=5 created=50 pruned=5 spared=0 pops=38 recycled=5 peakTrees=45 peakQueue=38 results=0 digest=cbf29ce484222325
random-1 MoLESP MAX 2: inits=7 grows=118 merges=27 mo=59 created=266 pruned=55 spared=0 pops=173 recycled=55 peakTrees=211 peakQueue=135 results=0 digest=cbf29ce484222325
random-1 MoLESP MAX 3: inits=7 grows=340 merges=161 mo=235 created=1073 pruned=330 spared=46 pops=524 recycled=330 peakTrees=743 peakQueue=351 results=3 digest=2bea3c58b8fbf4d0
random-1 MoLESP MAX 4: inits=7 grows=866 merges=707 mo=703 created=3654 pruned=1371 spared=318 pops=1344 recycled=1371 peakTrees=2284 peakQueue=820 results=56 digest=b7257e6d8bcac440
kg GAM MAX 1: inits=3 grows=18 merges=0 mo=0 created=21 pruned=0 spared=0 pops=18 recycled=0 peakTrees=21 peakQueue=18 results=0 digest=cbf29ce484222325
kg GAM MAX 2: inits=3 grows=144 merges=3 mo=0 created=150 pruned=0 spared=0 pops=144 recycled=0 peakTrees=150 peakQueue=126 results=0 digest=cbf29ce484222325
kg GAM MAX 3: inits=3 grows=1885 merges=4 mo=0 created=1894 pruned=2 spared=0 pops=1885 recycled=2 peakTrees=1892 peakQueue=1741 results=1 digest=f94d1ce713b6d0ba
kg GAM MAX 4: inits=3 grows=33041 merges=7 mo=0 created=33053 pruned=2 spared=0 pops=33041 recycled=2 peakTrees=33051 peakQueue=31156 results=1 digest=f94d1ce713b6d0ba
kg ESP MAX 1: inits=3 grows=18 merges=0 mo=0 created=21 pruned=0 spared=0 pops=18 recycled=0 peakTrees=21 peakQueue=18 results=0 digest=cbf29ce484222325
kg ESP MAX 2: inits=3 grows=138 merges=3 mo=0 created=150 pruned=6 spared=0 pops=144 recycled=6 peakTrees=144 peakQueue=126 results=0 digest=cbf29ce484222325
kg ESP MAX 3: inits=3 grows=1846 merges=4 mo=0 created=1864 pruned=11 spared=0 pops=1855 recycled=11 peakTrees=1853 peakQueue=1711 results=1 digest=f94d1ce713b6d0ba
kg ESP MAX 4: inits=3 grows=32790 merges=5 mo=0 created=32813 pruned=15 spared=0 pops=32801 recycled=15 peakTrees=32798 peakQueue=30946 results=1 digest=f94d1ce713b6d0ba
kg MoESP MAX 1: inits=3 grows=18 merges=0 mo=0 created=21 pruned=0 spared=0 pops=18 recycled=0 peakTrees=21 peakQueue=18 results=0 digest=cbf29ce484222325
kg MoESP MAX 2: inits=3 grows=138 merges=3 mo=6 created=156 pruned=6 spared=0 pops=144 recycled=6 peakTrees=150 peakQueue=126 results=0 digest=cbf29ce484222325
kg MoESP MAX 3: inits=3 grows=1846 merges=4 mo=6 created=1870 pruned=11 spared=0 pops=1855 recycled=11 peakTrees=1859 peakQueue=1711 results=1 digest=f94d1ce713b6d0ba
kg MoESP MAX 4: inits=3 grows=32790 merges=5 mo=8 created=32821 pruned=15 spared=0 pops=32801 recycled=15 peakTrees=32806 peakQueue=30946 results=1 digest=f94d1ce713b6d0ba
kg LESP MAX 1: inits=3 grows=18 merges=0 mo=0 created=21 pruned=0 spared=0 pops=18 recycled=0 peakTrees=21 peakQueue=18 results=0 digest=cbf29ce484222325
kg LESP MAX 2: inits=3 grows=138 merges=3 mo=0 created=150 pruned=6 spared=0 pops=144 recycled=6 peakTrees=144 peakQueue=126 results=0 digest=cbf29ce484222325
kg LESP MAX 3: inits=3 grows=1846 merges=4 mo=0 created=1864 pruned=11 spared=0 pops=1855 recycled=11 peakTrees=1853 peakQueue=1711 results=1 digest=f94d1ce713b6d0ba
kg LESP MAX 4: inits=3 grows=32790 merges=5 mo=0 created=32813 pruned=15 spared=0 pops=32801 recycled=15 peakTrees=32798 peakQueue=30946 results=1 digest=f94d1ce713b6d0ba
kg MoLESP MAX 1: inits=3 grows=18 merges=0 mo=0 created=21 pruned=0 spared=0 pops=18 recycled=0 peakTrees=21 peakQueue=18 results=0 digest=cbf29ce484222325
kg MoLESP MAX 2: inits=3 grows=138 merges=3 mo=6 created=156 pruned=6 spared=0 pops=144 recycled=6 peakTrees=150 peakQueue=126 results=0 digest=cbf29ce484222325
kg MoLESP MAX 3: inits=3 grows=1846 merges=4 mo=6 created=1870 pruned=11 spared=0 pops=1855 recycled=11 peakTrees=1859 peakQueue=1711 results=1 digest=f94d1ce713b6d0ba
kg MoLESP MAX 4: inits=3 grows=32790 merges=5 mo=8 created=32821 pruned=15 spared=0 pops=32801 recycled=15 peakTrees=32806 peakQueue=30946 results=1 digest=f94d1ce713b6d0ba
random-0 larger-first GAM MAX 1: inits=5 grows=23 merges=0 mo=0 created=28 pruned=0 spared=0 pops=23 recycled=0 peakTrees=28 peakQueue=23 results=0 digest=cbf29ce484222325
random-0 larger-first GAM MAX 2: inits=5 grows=124 merges=6 mo=0 created=135 pruned=0 spared=0 pops=124 recycled=0 peakTrees=135 peakQueue=40 results=0 digest=cbf29ce484222325
random-0 larger-first GAM MAX 3: inits=5 grows=552 merges=72 mo=0 created=633 pruned=4 spared=0 pops=552 recycled=4 peakTrees=629 peakQueue=63 results=7 digest=8157d13cfe1b0091
random-0 larger-first GAM MAX 4: inits=5 grows=2131 merges=452 mo=0 created=2606 pruned=18 spared=0 pops=2131 recycled=18 peakTrees=2588 peakQueue=76 results=42 digest=13ec1637cf4129fd
random-0 larger-first ESP MAX 1: inits=5 grows=21 merges=0 mo=0 created=28 pruned=2 spared=0 pops=23 recycled=2 peakTrees=27 peakQueue=23 results=0 digest=cbf29ce484222325
random-0 larger-first ESP MAX 2: inits=5 grows=107 merges=0 mo=0 created=126 pruned=14 spared=0 pops=115 recycled=14 peakTrees=113 peakQueue=40 results=0 digest=cbf29ce484222325
random-0 larger-first ESP MAX 3: inits=5 grows=396 merges=8 mo=0 created=509 pruned=100 spared=0 pops=440 recycled=100 peakTrees=410 peakQueue=61 results=4 digest=8433f5cf16ac0068
random-0 larger-first ESP MAX 4: inits=5 grows=1238 merges=36 mo=0 created=1795 pruned=516 spared=0 pops=1410 recycled=516 peakTrees=1280 peakQueue=69 results=23 digest=8e7b820a1358d43d
random-0 larger-first MoESP MAX 1: inits=5 grows=21 merges=0 mo=2 created=30 pruned=2 spared=0 pops=23 recycled=2 peakTrees=29 peakQueue=23 results=0 digest=cbf29ce484222325
random-0 larger-first MoESP MAX 2: inits=5 grows=107 merges=0 mo=8 created=134 pruned=14 spared=0 pops=115 recycled=14 peakTrees=121 peakQueue=40 results=0 digest=cbf29ce484222325
random-0 larger-first MoESP MAX 3: inits=5 grows=395 merges=10 mo=42 created=555 pruned=103 spared=0 pops=440 recycled=103 peakTrees=453 peakQueue=61 results=5 digest=07d41643b71e695d
random-0 larger-first MoESP MAX 4: inits=5 grows=1236 merges=48 mo=158 created=1979 pruned=532 spared=0 pops=1410 recycled=532 peakTrees=1448 peakQueue=69 results=33 digest=b1c422a1a8cd4fe9
random-0 larger-first LESP MAX 1: inits=5 grows=21 merges=0 mo=0 created=28 pruned=2 spared=0 pops=23 recycled=2 peakTrees=27 peakQueue=23 results=0 digest=cbf29ce484222325
random-0 larger-first LESP MAX 2: inits=5 grows=107 merges=4 mo=0 created=126 pruned=10 spared=4 pops=115 recycled=10 peakTrees=117 peakQueue=40 results=0 digest=cbf29ce484222325
random-0 larger-first LESP MAX 3: inits=5 grows=423 merges=61 mo=0 created=545 pruned=56 spared=52 pops=471 recycled=56 peakTrees=490 peakQueue=61 results=6 digest=a7f4637c8cf35ca6
random-0 larger-first LESP MAX 4: inits=5 grows=1516 merges=349 mo=0 created=2118 pruned=248 spared=308 pops=1706 recycled=248 peakTrees=1871 peakQueue=69 results=32 digest=f05a6722ba75e195
random-0 larger-first MoLESP MAX 1: inits=5 grows=21 merges=0 mo=2 created=30 pruned=2 spared=0 pops=23 recycled=2 peakTrees=29 peakQueue=23 results=0 digest=cbf29ce484222325
random-0 larger-first MoLESP MAX 2: inits=5 grows=107 merges=4 mo=8 created=142 pruned=18 spared=4 pops=115 recycled=18 peakTrees=125 peakQueue=40 results=0 digest=cbf29ce484222325
random-0 larger-first MoLESP MAX 3: inits=5 grows=422 merges=64 mo=42 created=689 pruned=156 spared=53 pops=471 recycled=156 peakTrees=534 peakQueue=61 results=7 digest=8157d13cfe1b0091
random-0 larger-first MoLESP MAX 4: inits=5 grows=1514 merges=368 mo=158 created=2852 pruned=807 spared=315 pops=1706 recycled=807 peakTrees=2046 peakQueue=69 results=42 digest=13ec1637cf4129fd
`
