package benchmarks

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ctpquery"
	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

// Prepare generates workload's inputs from seed and writes them under
// dir: the graphs as snapshots, the mutation stream, and the plan itself
// (dir/plan.json). It also is the correctness oracle: every distinct
// query is evaluated here through the sequential, uncached facade and
// its answer stored in the plan. None of this is part of setup_s.
func Prepare(workload string, seed int64, sizes Sizes, seconds float64, dir string) (*Plan, error) {
	spec, err := SpecOf(workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &preparer{
		plan:    &Plan{Workload: workload, Seed: seed},
		spec:    spec,
		sizes:   sizes,
		seconds: seconds,
		dir:     dir,
	}
	// One stream per (seed, workload): workloads do not share draws, so
	// changing one cannot shift another's inputs.
	for i, s := range Specs {
		if s.Name == workload {
			p.rng = rand.New(rand.NewSource(seed*1000003 + int64(i)))
		}
	}
	switch workload {
	case Fig11Grid:
		err = p.fig11Grid()
	case KGExplore:
		err = p.kgExplore()
	case ServeHot:
		err = p.serveHot()
	case ServeMixed:
		err = p.serveMixed()
	case LiveMixed:
		err = p.liveMixed()
	}
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", workload, err)
	}
	if err := WritePlan(filepath.Join(dir, "plan.json"), p.plan); err != nil {
		return nil, err
	}
	return p.plan, nil
}

type preparer struct {
	plan    *Plan
	spec    Spec
	sizes   Sizes
	seconds float64
	dir     string
	rng     *rand.Rand
}

// addGraph writes g as dir/<name>.snap and loads it back through the
// facade — the graph every oracle answer is computed on is the one the
// measured process will load.
func (p *preparer) addGraph(name string, g *graph.Graph) (*ctpquery.Graph, error) {
	path := filepath.Join(p.dir, name+".snap")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := graph.WriteSnapshot(f, g); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	fg, err := ctpquery.OpenGraph(path)
	if err != nil {
		return nil, err
	}
	if fg.Fingerprint() != g.Fingerprint() {
		return nil, fmt.Errorf("graph %s: snapshot round trip changed the fingerprint", name)
	}
	p.plan.Graphs = append(p.plan.Graphs, GraphFile{
		Name:        name,
		Path:        path,
		Fingerprint: strconv.FormatUint(g.Fingerprint(), 16),
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
	})
	return fg, nil
}

// kgSeed derives the graph seed, so kg-small is the same graph in the
// three workloads that use it.
func (p *preparer) kgSeed() int64 { return p.plan.Seed*7919 + 17 }

// band is the window of deterministic work (kept provenances) and answer
// size a candidate query must fall in to be selected. Selecting by work
// keeps each class's cost distribution narrow and alike across seeds:
// with free draws, a few hub-adjacent queries cost 100× the median and
// set every tail metric.
type band struct {
	minKept, maxKept int
	minRows, maxRows int
}

func (b band) admits(rows, kept int) bool {
	return kept >= b.minKept && kept <= b.maxKept && rows >= b.minRows && rows <= b.maxRows
}

// stratum is which of strata equal slices of the kept range an admitted
// count falls in.
func (b band) stratum(kept, strata int) int {
	return (kept - b.minKept) * strata / (b.maxKept - b.minKept + 1)
}

// candidateTimeout is a backstop against a runaway candidate. Work is
// bounded before a candidate reaches the facade (withinWork's count for
// CONNECT clauses; the fixed grid and the BGP-only class are bounded by
// construction), so it is set where only a hang reaches it — a timed-out
// candidate is rejected, and selection must stay a function of the seed
// on a slow machine or under the race detector too.
const candidateTimeout = 10 * time.Second

// candidate is one drawn query. When seeds is set, the CTP over those
// seed sets is what the query's CONNECT clause searches, and selection
// first checks its work with withinWork. group, when the class is picked
// in strata and its work is not a kept count (BGP-only queries), names
// the candidate's stratum.
type candidate struct {
	text    string
	seeds   [][]graph.NodeID
	filters eql.Filters
	group   int
}

// pick draws candidates from next (called sequentially, so the draw order
// is fixed), evaluates them through db — the sequential, uncached facade:
// this run is the oracle's — and appends the first n that fall in b to
// the plan, returning their query indices. Candidates are evaluated two
// at a time but accepted in draw order, so the outcome does not depend on
// scheduling. keep, when set, sees every accepted answer.
//
// With strata > 1 the class is picked in strata: the band's kept range is
// cut into that many equal slices (or the candidates name their group)
// and each slice supplies n/strata queries, so that every seed's class
// has the same spread of work and its median and its total cost barely
// depend on the seed. Should a slice stay short after 100·n candidates,
// the rest is filled from anywhere in the band.
func (p *preparer) pick(db *ctpquery.DB, g *graph.Graph, graphName, class string, n, strata int, rename bool, b band,
	next func() candidate, keep func(*ctpquery.Results)) ([]int32, error) {
	n = max(n/max(p.sizes.Shrink, 1), 1)
	if strata < 1 || n%strata != 0 {
		strata = 1 // a shrunk class: too few queries to pick in strata
	}
	filled := make([]int, strata)
	type outcome struct {
		candidate
		res *ctpquery.Results
		err error
	}
	const batch = 8
	var picked []int32
	for tried := 0; len(picked) < n; tried += batch {
		if tried > 400*n {
			return nil, fmt.Errorf("class %s: only %d of %d queries found in %d candidates", class, len(picked), n, tried)
		}
		outs := make([]outcome, batch)
		for i := range outs {
			outs[i].candidate = next()
		}
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < batch; i += 2 {
					o := &outs[i]
					if o.seeds != nil && !withinWork(g, o.filters, b, o.seeds...) {
						continue
					}
					ctx, cancel := context.WithTimeout(context.Background(), candidateTimeout)
					o.res, o.err = db.Query(ctx, o.text)
					cancel()
				}
			}(w)
		}
		wg.Wait()
		for _, o := range outs {
			if o.err != nil {
				return nil, fmt.Errorf("class %s: %q: %w", class, o.text, o.err)
			}
			if o.res == nil || len(picked) == n {
				continue
			}
			kept := o.res.SearchStats().TreesKept
			if o.res.TimedOut() || !b.admits(o.res.Len(), kept) {
				continue
			}
			if strata > 1 && tried <= 100*n {
				st := o.group
				if b.maxKept > b.minKept {
					st = b.stratum(kept, strata)
				}
				if filled[st] == n/strata {
					continue
				}
				filled[st]++
			}
			if keep != nil {
				keep(o.res)
			}
			picked = append(picked, int32(len(p.plan.Queries)))
			p.plan.Queries = append(p.plan.Queries, Query{
				Graph: graphName, Class: class, Text: o.text, Rename: rename,
				Rows: o.res.Len(), Digest: Digest(p.plan.Keys(o.res)), Kept: kept,
			})
		}
	}
	return picked, nil
}

// connectable draws m distinct nodes reached by directed walks of
// 1..maxDist edges out of one common root (as gen.ConnectableCTPWorkload
// does), so a connecting tree of at most m·maxDist edges exists.
func connectable(g *graph.Graph, rng *rand.Rand, m, maxDist int) []graph.NodeID {
	for {
		root := graph.NodeID(rng.Intn(g.NumNodes()))
		if len(g.Out(root)) == 0 {
			continue
		}
		used := map[graph.NodeID]bool{root: true}
		var out []graph.NodeID
		for tries := 0; tries < 50 && len(out) < m; tries++ {
			at := root
			for s := 1 + rng.Intn(maxDist); s > 0; s-- {
				outs := g.Out(at)
				if len(outs) == 0 {
					break
				}
				at = g.Target(outs[rng.Intn(len(outs))])
			}
			if !used[at] {
				used[at] = true
				out = append(out, at)
			}
		}
		if len(out) == m {
			return out
		}
	}
}

// withinWork reports whether the CTP over the given seed sets keeps
// between b.minKept and b.maxKept provenances and has a result. It is
// the first stage of selection: the search stops the moment it has kept
// more than the band allows, so a hub-adjacent candidate costs about as
// much as the most expensive admitted one (and the bound is a count, so
// selection stays a function of the seed). pick still applies the band
// to the facade's own counts.
func withinWork(g *graph.Graph, f eql.Filters, b band, seeds ...[]graph.NodeID) bool {
	rs, st, err := core.Search(g, core.Explicit(seeds...), core.Options{
		Algorithm: core.MoLESP, Filters: f, MaxTrees: b.maxKept + 1,
	})
	return err == nil && st.Kept() >= b.minKept && st.Kept() <= b.maxKept && rs.Len() >= b.minRows
}

// connectCandidate draws connectable members and returns the CONNECT
// query over them.
func connectCandidate(g *graph.Graph, rng *rand.Rand, m, maxDist int, f eql.Filters) candidate {
	members := connectable(g, rng, m, maxDist)
	c := candidate{seeds: make([][]graph.NodeID, m), filters: f}
	labels := make([]string, m)
	for i, n := range members {
		c.seeds[i] = []graph.NodeID{n}
		labels[i] = g.NodeLabel(n)
	}
	c.text = "SELECT ?t WHERE { CONNECT " + strings.Join(labels, " ") + " AS ?t MAX " + strconv.Itoa(f.MaxEdges)
	if f.Limit > 0 {
		c.text += " LIMIT " + strconv.Itoa(f.Limit)
	}
	c.text += " . }"
	return c
}

// shuffled returns a seeded permutation of idx.
func (p *preparer) shuffled(idx []int32) []int32 {
	out := append([]int32(nil), idx...)
	p.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// cycleOps builds n operations: op i takes the next query (round robin)
// of the pool its class pattern[i mod len] names. A fixed pattern, not a
// random draw, keeps the class shares exact in a window of any length.
func cycleOps(n int, pattern []int, pools [][]int32) []int32 {
	ops := make([]int32, n)
	next := make([]int, len(pools))
	for i := range ops {
		c := pattern[i%len(pattern)]
		ops[i] = pools[c][next[c]%len(pools[c])]
		next[c]++
	}
	return ops
}

// openLoopOps is how many operations an HTTP plan holds: the warm-up and
// a whole window at the fixed rate (the traced run drives two servers for
// half a window each), rounded up to whole 10-op patterns because the
// closed-loop phase wraps around.
func (p *preparer) openLoopOps() int {
	n := p.spec.WarmupOps + int(math.Ceil(p.spec.RateRPS*p.seconds))
	return (n/10 + 2) * 10
}

// ---------------------------------------------------------------------------

// fig11Grid: the Figure 11 Line/Comb/Star topologies, one complete
// enumeration per graph. The seed only rotates the round robin: the grid
// is the paper's, not a random draw. The 32-op cycle (4 Line, 4 Star m=5,
// 7 Comb, 16 Star m=8, 1 Star m=10) puts the median inside the Star m=8
// class (47–97% of ops by cost rank) and p99 inside Star(m=10) (the top
// 3%), so neither percentile sits on a class boundary. The median class
// is a multi-millisecond search on purpose: sub-millisecond queries are
// mostly per-search set-up, whose time moved by half between identical
// runs on the calibration machine, while the long searches repeated
// within a tenth.
func (p *preparer) fig11Grid() error {
	workloads := []*gen.Workload{
		gen.Line(10, 2, gen.Alternate),      // m=10, sL=3
		gen.Star(5, 4, gen.Alternate),       // m=5,  sL=4
		gen.Comb(4, 2, 3, 2, gen.Alternate), // nA=4 (m=12), sL=3
		gen.Star(8, 2, gen.Alternate),       // m=8,  sL=2
		gen.Star(10, 2, gen.Alternate),      // m=10, sL=2
	}
	names := []string{"line-m10", "star-m5", "comb-na4", "star-m8", "star-m10"}
	pools := make([][]int32, len(workloads))
	for i, wl := range workloads {
		fg, err := p.addGraph(names[i], wl.Graph)
		if err != nil {
			return err
		}
		db, err := ctpquery.Open(fg, nil)
		if err != nil {
			return err
		}
		var members []string
		for _, s := range wl.Seeds {
			members = append(members, wl.Graph.NodeLabel(s[0]))
		}
		text := "SELECT ?t WHERE { CONNECT " + strings.Join(members, " ") + " AS ?t . }"
		pools[i], err = p.pick(db, wl.Graph, names[i], names[i], 1, 1, false,
			band{maxKept: math.MaxInt, minRows: 1, maxRows: 1}, func() candidate { return candidate{text: text} }, nil)
		if err != nil {
			return err
		}
	}
	pattern := []int{
		3, 2, 3, 0, 3, 1, 3, 2, 3, 4, 3, 2, 3, 0, 3, 1,
		3, 2, 3, 0, 3, 1, 3, 2, 3, 2, 3, 0, 3, 1, 3, 2,
	}
	rot := int(uint64(p.plan.Seed) % uint64(len(pattern)))
	pattern = append(pattern[rot:], pattern[:rot]...)
	p.plan.Ops = cycleOps(len(pattern), pattern, pools)
	return nil
}

var (
	personOrgLabels    = []string{"worksFor", "founded", "memberOf", "owns"}
	personPlaceLabels  = []string{"bornIn", "livesIn", "citizenOf"}
	personPersonLabels = []string{"knows", "spouse", "parentOf", "colleague"}
)

// outEdgeWith returns a random out-edge of n whose label is in labels.
func outEdgeWith(g *graph.Graph, rng *rand.Rand, n graph.NodeID, labels []string) (graph.EdgeID, bool) {
	var match []graph.EdgeID
	for _, e := range g.Out(n) {
		if slices.Contains(labels, g.EdgeLabel(e)) {
			match = append(match, e)
		}
	}
	if len(match) == 0 {
		return 0, false
	}
	return match[rng.Intn(len(match))], true
}

// sourcesOf returns the sources of n's in-edges labeled l: the bindings
// of ?x in the pattern "?x l n".
func sourcesOf(g *graph.Graph, n graph.NodeID, l graph.LabelID) []graph.NodeID {
	var out []graph.NodeID
	seen := map[graph.NodeID]bool{}
	for _, e := range g.In(n) {
		if src := g.Source(e); g.EdgeLabelID(e) == l && !seen[src] {
			seen[src] = true
			out = append(out, src)
		}
	}
	return out
}

var (
	j1Band   = band{1200, 2200, 1, 1000}
	enumBand = band{2000, 3200, 1, 1000}
)

// kgExplore: kg-large; 40% J1-style BGP+CTP+join, 30% complete 3-member
// enumerations, 30% BGP-only two-pattern joins. The cache is off, so the
// pools may be small: every op searches.
func (p *preparer) kgExplore() error {
	kg := gen.YAGOLike(p.sizes.Large, p.kgSeed())
	g := kg.Graph
	fg, err := p.addGraph("kg-large", g)
	if err != nil {
		return err
	}
	db, err := ctpquery.Open(fg, nil)
	if err != nil {
		return err
	}
	rng := p.rng
	person := func() graph.NodeID { return kg.People[rng.Intn(len(kg.People))] }

	// J1-style: two variable-disjoint BGPs bind ?p (people tied to one
	// organization) and ?q (people tied to one place); the CTP connects
	// the two seed sets. ?q's anchor person is a short undirected walk
	// from ?p's, so a connection within MAX 3 is likely.
	j1 := func() candidate {
		for {
			p0 := person()
			e1, ok := outEdgeWith(g, rng, p0, personOrgLabels)
			if !ok {
				continue
			}
			at := p0
			for s := 1 + rng.Intn(2); s > 0; s-- {
				inc := g.Incident(at)
				at = g.Other(inc[rng.Intn(len(inc))], at)
			}
			if at == p0 || !strings.HasPrefix(g.NodeLabel(at), "person") {
				continue
			}
			e2, ok := outEdgeWith(g, rng, at, personPlaceLabels)
			if !ok {
				continue
			}
			ps := sourcesOf(g, g.Target(e1), g.EdgeLabelID(e1))
			qs := sourcesOf(g, g.Target(e2), g.EdgeLabelID(e2))
			if len(ps) > 6 || len(qs) > 6 {
				continue // hub-sized seed sets: far above the band
			}
			return candidate{
				text: fmt.Sprintf("SELECT ?p ?q ?t WHERE { ?p %s %s . ?q %s %s . CONNECT ?p ?q AS ?t MAX 3 . }",
					g.EdgeLabel(e1), g.NodeLabel(g.Target(e1)), g.EdgeLabel(e2), g.NodeLabel(g.Target(e2))),
				seeds: [][]graph.NodeID{ps, qs}, filters: completeFilters,
			}
		}
	}
	enum := func() candidate { return connectCandidate(g, rng, 3, 1, completeFilters) }
	// BGP-only: the first pattern is selective (adjacency of one
	// organization), the second scans a whole edge label and joins.
	bgpOnly := func() candidate {
		for {
			p0 := person()
			e1, ok1 := outEdgeWith(g, rng, p0, personOrgLabels)
			e2, ok2 := outEdgeWith(g, rng, p0, personPersonLabels)
			if ok1 && ok2 {
				// The scanned label decides the cost (its edge count), so
				// it is the stratum: three queries per label.
				return candidate{text: fmt.Sprintf("SELECT ?p ?q WHERE { ?p %s %s . ?p %s ?q . }",
					g.EdgeLabel(e1), g.NodeLabel(g.Target(e1)), g.EdgeLabel(e2)),
					group: slices.Index(personPersonLabels, g.EdgeLabel(e2))}
			}
		}
	}
	pools := make([][]int32, 3)
	if pools[0], err = p.pick(db, g, "kg-large", "j1", 16, 4, false, j1Band, j1, nil); err != nil {
		return err
	}
	if pools[1], err = p.pick(db, g, "kg-large", "enum", 12, 3, false, enumBand, enum, nil); err != nil {
		return err
	}
	if pools[2], err = p.pick(db, g, "kg-large", "bgp", 12, len(personPersonLabels), false, band{0, 0, 1, 1000}, bgpOnly, nil); err != nil {
		return err
	}
	for i := range pools {
		pools[i] = p.shuffled(pools[i])
	}
	// 4 rounds of the 10-op pattern use each of the 16 + 12 + 12 queries
	// exactly once.
	p.plan.Ops = cycleOps(40, []int{0, 1, 2, 0, 1, 0, 2, 0, 1, 2}, pools)
	return nil
}

// kgSmall generates kg-small and opens it through the facade.
func (p *preparer) kgSmall() (*graph.Graph, *ctpquery.Graph, *ctpquery.DB, error) {
	g := gen.YAGOLike(p.sizes.Small, p.kgSeed()).Graph
	fg, err := p.addGraph("kg-small", g)
	if err != nil {
		return nil, nil, nil, err
	}
	db, err := ctpquery.Open(fg, nil)
	return g, fg, db, err
}

// cheapBand admits the interactive class: a connectable pair whose first
// tree (MAX 3 LIMIT 1) is found within 20 to 80 provenances.
var (
	cheapBand       = band{20, 80, 1, 1}
	cheapFilters    = eql.Filters{MaxEdges: 3, Limit: 1}
	analyticalBand  = band{2500, 4000, 1, 1000}
	liveReadBand    = band{800, 1600, 1, 1000}
	completeFilters = eql.Filters{MaxEdges: 3}
)

// serveHot: 64 hot cheap queries drawn Zipf(1.3), every tenth request a
// cold one (never seen before: its tree variable is renamed per use).
func (p *preparer) serveHot() error {
	g, _, db, err := p.kgSmall()
	if err != nil {
		return err
	}
	cheap := func() candidate { return connectCandidate(g, p.rng, 2, 2, cheapFilters) }
	hot, err := p.pick(db, g, "kg-small", "hot", 64, 4, false, cheapBand, cheap, nil)
	if err != nil {
		return err
	}
	cold, err := p.pick(db, g, "kg-small", "cold", 256, 4, true, cheapBand, cheap, nil)
	if err != nil {
		return err
	}
	zipf := rand.NewZipf(p.rng, 1.3, 1, uint64(len(hot)-1))
	ops := make([]int32, p.openLoopOps())
	for i := range ops {
		if i%10 == 9 {
			ops[i] = cold[(i/10)%len(cold)]
		} else {
			ops[i] = hot[zipf.Uint64()]
		}
	}
	p.plan.Ops = ops
	return nil
}

// serveMixed: 70% cheap pairs, 30% analytical complete 3-member
// enumerations; every request's text is distinct (renamed tree variable),
// so the 1 MiB cache only ever misses, fills and evicts.
func (p *preparer) serveMixed() error {
	g, _, db, err := p.kgSmall()
	if err != nil {
		return err
	}
	cheap := func() candidate { return connectCandidate(g, p.rng, 2, 2, cheapFilters) }
	analytical := func() candidate { return connectCandidate(g, p.rng, 3, 1, completeFilters) }
	pools := make([][]int32, 2)
	if pools[0], err = p.pick(db, g, "kg-small", "cheap", 256, 4, true, cheapBand, cheap, nil); err != nil {
		return err
	}
	if pools[1], err = p.pick(db, g, "kg-small", "analytical", 32, 4, true, analyticalBand, analytical, nil); err != nil {
		return err
	}
	p.plan.Ops = cycleOps(p.openLoopOps(), []int{0, 0, 1, 0, 0, 1, 0, 0, 1, 0}, pools)
	return nil
}

// liveMixed: cheap complete reads on kg-small.Live() beside a writer.
//
// The mutation stream is built so that it never changes a read's answer,
// which lets every read at every epoch be checked against the oracle's
// answer on the frozen base: new nodes form components that hang off the
// old graph at a single old node (a pendant component cannot lie on a
// path between two old nodes, and results are minimal trees whose leaves
// are seeds), deletes of added edges only shrink those components, and
// deletes of base edges only take triples no expected tree uses (deleting
// an edge can remove answers, never add one). Batches are validated by
// applying them, as graphgen -mutations does, and the reads are re-run on
// the final epoch as a check of the construction.
func (p *preparer) liveMixed() error {
	g, fg, db, err := p.kgSmall()
	if err != nil {
		return err
	}
	p.plan.LabelDigests = true
	rng := p.rng
	usedTriples := map[graph.Triple]bool{}
	var anchors []string
	noteTrees := func(res *ctpquery.Results) {
		for i := 0; i < res.Len(); i++ {
			for _, e := range res.Row(i).Tree("t").Edges() {
				usedTriples[graph.Triple{Source: e.SrcLabel, Label: e.Label, Target: e.DstLabel}] = true
				anchors = append(anchors, e.SrcLabel, e.DstLabel)
			}
		}
	}
	read := func() candidate { return connectCandidate(g, rng, 2, 2, completeFilters) }
	reads, err := p.pick(db, g, "kg-small", "read", 32, 4, false, liveReadBand, read, noteTrees)
	if err != nil {
		return err
	}
	p.plan.Ops = p.shuffled(reads)

	// The paced phase takes PacedShare of the window. The bulk phase runs
	// whole fills of the delta for the rest of it, and never reuses a
	// batch: it gets twice the fills it gets through at the calibrated
	// bulk rate, and stops early should it ever run out.
	paced := int(math.Ceil(p.spec.WriteBatchesPerS * p.seconds * p.spec.PacedShare))
	fill := CompactThreshold / p.spec.BatchOps
	fills := int(math.Ceil(2 * p.spec.BulkBatchesPerS * p.seconds * (1 - p.spec.PacedShare) / float64(fill)))
	batches, err := p.mutationStream(g, fg, anchors, usedTriples, paced+fills*fill)
	if err != nil {
		return err
	}
	p.plan.PacedBatches = paced
	p.plan.Mutations = filepath.Join(p.dir, "mutations.txt")
	f, err := os.Create(p.plan.Mutations)
	if err != nil {
		return err
	}
	if err := ctpquery.WriteMutations(f, batches); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mutationStream generates n answer-preserving batches of spec.BatchOps
// operations each (see liveMixed).
func (p *preparer) mutationStream(g *graph.Graph, fg *ctpquery.Graph, anchors []string,
	used map[graph.Triple]bool, n int) ([]ctpquery.Batch, error) {
	rng := p.rng
	relLabels := append(append(append([]string{}, personOrgLabels...), personPlaceLabels...), personPersonLabels...)
	relLabel := func() string { return relLabels[rng.Intn(len(relLabels))] }

	type liveNode struct {
		label string
		root  string // the one old node this node's component hangs off
	}
	var nodes []liveNode
	byRoot := map[string][]int{}
	var added []graph.Triple // live added edges, eligible for deletion
	// Every triple is added at most once over the stream and deleted at
	// most once: a second copy would make one -e remove two edges and a
	// later one remove none, and the run checks that every submitted
	// operation applies.
	everAdded := map[graph.Triple]bool{}
	deletedBase := map[graph.Triple]bool{}

	orient := func(a, b string) graph.Triple {
		if rng.Intn(2) == 0 {
			a, b = b, a
		}
		return graph.Triple{Source: a, Label: relLabel(), Target: b}
	}
	// anchor picks the old node a new component hangs off: half the time
	// a node the reads' answer trees touch, so reads keep expanding nodes
	// whose adjacency lives partly in the delta.
	anchor := func() string {
		if rng.Intn(2) == 0 {
			return anchors[rng.Intn(len(anchors))]
		}
		return g.NodeLabel(graph.NodeID(rng.Intn(g.NumNodes())))
	}

	baseTriple := func(e graph.EdgeID) graph.Triple {
		return graph.Triple{Source: g.NodeLabel(g.Source(e)), Label: g.EdgeLabel(e), Target: g.NodeLabel(g.Target(e))}
	}
	baseCopies := make(map[graph.Triple]int, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		baseCopies[baseTriple(graph.EdgeID(e))]++
	}

	batches := make([]ctpquery.Batch, 0, n)
	for len(batches) < n {
		var b ctpquery.Batch
		first := len(added) // added[first:] are this batch's own edges
		for ops := 0; ops < p.spec.BatchOps; {
			switch roll := rng.Float64(); {
			case roll < 0.20 || len(nodes) == 0: // +n with its first edge
				nn := liveNode{label: "live" + strconv.Itoa(len(nodes))}
				var to string
				if len(nodes) > 0 && rng.Intn(3) == 0 {
					parent := nodes[rng.Intn(len(nodes))]
					nn.root, to = parent.root, parent.label
				} else {
					nn.root = anchor()
					to = nn.root
				}
				byRoot[nn.root] = append(byRoot[nn.root], len(nodes))
				nodes = append(nodes, nn)
				t := orient(nn.label, to)
				everAdded[t] = true // the node is new, so the triple is
				b.AddNodes = append(b.AddNodes, ctpquery.NodeAdd{Label: nn.label, Types: []string{"live"}})
				b.AddEdges = append(b.AddEdges, t)
				added = append(added, t)
				ops += 2
			case roll < 0.65: // +e inside one component
				nn := nodes[rng.Intn(len(nodes))]
				to := nn.root
				if peers := byRoot[nn.root]; len(peers) > 1 && rng.Intn(2) == 0 {
					if peer := nodes[peers[rng.Intn(len(peers))]]; peer.label != nn.label {
						to = peer.label
					}
				}
				t := orient(nn.label, to)
				if everAdded[t] {
					continue
				}
				everAdded[t] = true
				b.AddEdges = append(b.AddEdges, t)
				added = append(added, t)
				ops++
			case roll < 0.85 && first > 0: // -e of an edge an earlier batch added
				i := rng.Intn(first)
				b.DelEdges = append(b.DelEdges, added[i])
				first--
				added[i] = added[first]
				added[first] = added[len(added)-1]
				added = added[:len(added)-1]
				ops++
			default: // -e of a base edge no expected tree uses
				t := baseTriple(graph.EdgeID(rng.Intn(g.NumEdges())))
				// The generator may emit a triple twice, and one -e removes
				// every copy: only single-copy triples keep the count of
				// applied operations equal to the count submitted.
				if used[t] || deletedBase[t] || baseCopies[t] > 1 {
					continue
				}
				deletedBase[t] = true
				b.DelEdges = append(b.DelEdges, t)
				ops++
			}
		}
		batches = append(batches, b)
	}

	// Check the construction: apply the stream and re-run the reads on the
	// final epoch. Every Mutate republishes the whole overlay, so applying
	// batch by batch would cost seconds; the stream is applied in merged
	// chunks instead (every intermediate state of any order of these
	// operations preserves the answers, by the argument above), and
	// TestInputsAndMutationStream applies a stream batch by batch.
	lg := fg.Live()
	defer lg.Quiesce()
	const chunk = 64
	for i := 0; i < len(batches); i += chunk {
		var merged ctpquery.Batch
		for _, b := range batches[i:min(i+chunk, len(batches))] {
			merged.AddNodes = append(merged.AddNodes, b.AddNodes...)
			merged.AddEdges = append(merged.AddEdges, b.AddEdges...)
			merged.DelEdges = append(merged.DelEdges, b.DelEdges...)
		}
		if _, err := lg.Mutate(merged); err != nil {
			return nil, fmt.Errorf("generated batches %d.. rejected: %w", i, err)
		}
	}
	ldb, err := ctpquery.Open(lg, nil)
	if err != nil {
		return nil, err
	}
	for i := range p.plan.Queries {
		q := &p.plan.Queries[i]
		res, err := ldb.Query(context.Background(), q.Text)
		if err != nil {
			return nil, err
		}
		if err := p.plan.CheckResults(q, res); err != nil {
			return nil, fmt.Errorf("mutation stream changed the answer of %q: %w", q.Text, err)
		}
	}
	return batches, nil
}
