package benchmarks

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/bgp"
	"ctpquery/internal/cluster"
	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	"ctpquery/internal/graph"
	"ctpquery/internal/serve"
	"ctpquery/internal/storage"
)

// Layer probes: each times one layer's public functions on the workload's
// own inputs and reads the values they return. They run inside the traced
// run, before the replay, and are bounded to about a second each.

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// graphLayer: snapshot read, CSR build, bytes per edge and the adjacency
// sweep, on the workload's main graph.
func (l *layerRun) graphLayer() error {
	gf, g := l.mainGraph()
	var reads []float64
	for i := 0; i < 2; i++ {
		t := time.Now()
		if _, err := ctpquery.OpenGraph(gf.Path); err != nil {
			return err
		}
		reads = append(reads, time.Since(t).Seconds())
	}
	l.set("graph.snapshot_read_s", Median(reads))
	if fi, err := os.Stat(gf.Path); err == nil && g.NumEdges() > 0 {
		l.set("graph.snapshot_bytes_per_edge", float64(fi.Size())/float64(g.NumEdges()))
	}

	// Builder.Build: re-add the graph's nodes, types and edges, time Build.
	b := graph.NewBuilder()
	for _, n := range g.Nodes() {
		b.AddNode(g.NodeLabel(n))
		for _, t := range g.NodeTypes(n) {
			b.AddType(n, g.Labels().String(t))
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		b.AddEdge(ed.Source, g.EdgeLabel(graph.EdgeID(e)), ed.Target)
	}
	t := time.Now()
	b.Build()
	l.set("graph.build_s", time.Since(t).Seconds())

	// IncidentEdges sweep in BFS-visit order from node 0 — the access
	// pattern of a growing search, not a sequential array walk.
	visited := make([]bool, g.NumNodes())
	queue := []graph.NodeID{0}
	visited[0] = true
	edges := 0
	t = time.Now()
	for len(queue) > 0 && edges < 4_000_000 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.IncidentEdges(n) {
			edges++
			if o := g.Other(e, n); !visited[o] {
				visited[o] = true
				queue = append(queue, o)
			}
		}
	}
	if edges > 0 {
		l.set("graph.expand_ns_per_edge", float64(time.Since(t))/float64(edges))
	}
	return nil
}

// parseLayer: eql.Parse over the workload's texts.
func (l *layerRun) parseLayer() {
	texts := make([]string, len(l.plan.Queries))
	for i := range texts {
		texts[i] = l.plan.Queries[i].Text
	}
	reps := 1 + 2000/len(texts)
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range texts {
			_, _ = eql.Parse(s) // every text parsed once already, in runTraced
		}
	}
	l.set("eql.parse_us", usOf(time.Since(t))/float64(reps*len(texts)))
	i := 0
	l.set("eql.parse_allocs", testing.AllocsPerRun(200, func() {
		_, _ = eql.Parse(texts[i%len(texts)])
		i++
	}))
}

// constantSeeds resolves a CONNECT clause whose members are all label
// constants into singleton seed sets.
func constantSeeds(g *graph.Graph, c eql.CTP) ([]core.SeedSet, bool) {
	var sets [][]graph.NodeID
	for _, m := range c.Members {
		if len(m.Conds) != 1 || m.Conds[0].Prop != "label" || m.Conds[0].Op != eql.OpEq {
			return nil, false
		}
		n, ok := g.NodeByLabel(m.Conds[0].Value)
		if !ok {
			return nil, false
		}
		sets = append(sets, []graph.NodeID{n})
	}
	return core.Explicit(sets...), true
}

// coreLayer: core.Search on the workload's constant-member CTPs with the
// sequential kernel (core.*; the counts are sums over the plan's distinct
// queries and repeat exactly per seed) and, for the workload that runs
// sharded searches, at Parallelism 2 against 0 (exec.*).
func (l *layerRun) coreLayer() error {
	type ctpCase struct {
		g     *graph.Graph
		seeds []core.SeedSet
		f     eql.Filters
	}
	var cases []ctpCase
	for qi, q := range l.parsed {
		g := l.graphs[l.plan.Queries[qi].Graph]
		for _, c := range q.CTPs {
			if seeds, ok := constantSeeds(g, c); ok {
				cases = append(cases, ctpCase{g, seeds, c.Filters})
			}
		}
	}
	if len(cases) == 0 {
		return nil
	}
	var ms []float64
	var total time.Duration
	var created, kept, pruned, pops, peak int
	var allocs uint64
	for _, c := range cases {
		_, st, err := core.Search(c.g, c.seeds, core.Options{Algorithm: core.MoLESP, Filters: c.f, TrackAllocs: true})
		if err != nil {
			return err
		}
		ms = append(ms, msOf(st.Duration))
		total += st.Duration
		created += st.Created
		kept += st.Kept()
		pruned += st.Pruned
		pops += st.QueuePops
		allocs += st.Allocations
		if st.PeakTrees > peak {
			peak = st.PeakTrees
		}
	}
	l.set("core.search_ms", Median(ms))
	l.set("core.created", float64(created))
	l.set("core.pruned", float64(pruned))
	l.set("core.queue_pops", float64(pops))
	l.set("core.peak_trees", float64(peak))
	l.set("core.allocs_per_search", float64(allocs)/float64(len(cases)))
	if created > 0 {
		l.set("core.ns_per_created", float64(total)/float64(created))
		l.set("core.kept_share", float64(kept)/float64(created))
	}
	if l.plan.Workload != KGExplore {
		return nil
	}
	var par, seq []float64
	var busy, wall int64
	var stolen, shipped int
	for _, c := range cases {
		for _, k := range []int{0, 2} {
			_, st, err := core.Search(c.g, c.seeds, core.Options{Algorithm: core.MoLESP, Filters: c.f, Parallelism: k})
			if err != nil {
				return err
			}
			if k == 0 {
				seq = append(seq, msOf(st.Duration))
				continue
			}
			par = append(par, msOf(st.Duration))
			wall += int64(len(st.Workers)) * int64(st.Duration)
			for _, w := range st.Workers {
				busy += w.BusyNS
				stolen += w.Stolen
				shipped += w.Shipped
			}
		}
	}
	l.set("exec.search_ms", Median(par))
	l.set("exec.stolen", float64(stolen))
	l.set("exec.shipped", float64(shipped))
	if p := Median(par); p > 0 {
		l.set("exec.speedup_vs_seq", Median(seq)/p)
	}
	if wall > 0 {
		l.set("exec.busy_share", float64(busy)/float64(wall))
	}
	return nil
}

// bgpStorageLayer: bgp.Evaluate per BGP, and for two-pattern BGPs a
// direct storage.NaturalJoin of the two single-pattern tables.
func (l *layerRun) bgpStorageLayer() error {
	var evalMS, rowsOut, inPerOut []float64
	for qi, q := range l.parsed {
		g := l.graphs[l.plan.Queries[qi].Graph]
		for _, b := range q.BGPs {
			t := time.Now()
			tab, err := bgp.Evaluate(g, b)
			if err != nil {
				return err
			}
			evalMS = append(evalMS, msOf(time.Since(t)))
			rowsOut = append(rowsOut, float64(tab.NumRows()))
			if len(b.Patterns) != 2 {
				continue
			}
			var sides [2]*storage.Table
			for i, ep := range b.Patterns {
				if sides[i], err = bgp.Evaluate(g, eql.BGP{Patterns: []eql.EdgePattern{ep}}); err != nil {
					return err
				}
			}
			if out := storage.NaturalJoin(sides[0], sides[1]).NumRows(); out > 0 {
				inPerOut = append(inPerOut, float64(sides[0].NumRows()+sides[1].NumRows())/float64(out))
			}
		}
	}
	l.set("bgp.evaluate_ms", Median(evalMS))
	l.set("bgp.rows_out", Median(rowsOut))
	l.set("storage.rows_in_per_out", Median(inPerOut))
	return nil
}

// ---------------------------------------------------------------------------
// Serving-side probes (HTTP workloads).

// direct calls h.ServeHTTP with one /query request and returns the
// handler time.
func direct(h http.Handler, body []byte) (time.Duration, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	t := time.Now()
	h.ServeHTTP(rec, req)
	return time.Since(t), rec
}

func (l *layerRun) serveProbes(env *httpEnv) error {
	gf, _ := l.mainGraph()
	g, err := ctpquery.OpenGraph(gf.Path)
	if err != nil {
		return err
	}
	queries := make([]*ctpquery.Query, len(l.plan.Queries))
	for i := range queries {
		if queries[i], err = ctpquery.ParseQuery(l.plan.Queries[i].Text); err != nil {
			return err
		}
	}

	// admission: Estimate on every query's shape; Acquire+release of an
	// uncontended controller.
	est := admission.NewEstimator(g.NumNodes(), g.NumEdges(), serverConfig(false).Estimator)
	const reps = 20
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, q := range queries {
			est.Estimate(q.Shape(), 10*time.Second)
		}
	}
	l.set("admission.estimate_us", usOf(time.Since(t))/float64(reps*len(queries)))
	ctrl := admission.NewController(*serverConfig(false).Admission)
	t = time.Now()
	const acquires = 20000
	for i := 0; i < acquires; i++ {
		release, _, err := ctrl.Acquire(context.Background(), admission.Cheap, 100)
		if err != nil {
			return err
		}
		release()
	}
	l.set("admission.acquire_us", usOf(time.Since(t))/acquires)

	// qcache: a hit against the uncached run of the same query, and what a
	// miss adds over the uncached run (lookup, singleflight, size estimate,
	// insert). Misses are forced with the renamed tree variable.
	cached, err := ctpquery.Open(g, &ctpquery.Options{Cache: &ctpquery.CacheConfig{MaxBytes: 64 << 20}})
	if err != nil {
		return err
	}
	plain, err := ctpquery.Open(g, nil)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var hitUS, missOverUS []float64
	budget := time.Now().Add(time.Second)
	timed := func(db *ctpquery.DB, q *ctpquery.Query, wantHit bool) (time.Duration, error) {
		t := time.Now()
		_, info, err := db.RunWithInfo(ctx, q)
		d := time.Since(t)
		if err == nil && info.Hit != wantHit {
			err = fmt.Errorf("qcache probe: hit=%t, want %t", info.Hit, wantHit)
		}
		return d, err
	}
	for i := range queries {
		if time.Now().After(budget) {
			break
		}
		// Two fresh keys per query, one per order of the pair, so neither
		// side always runs on the caches the other just warmed.
		for order := 0; order < 2; order++ {
			renamed, err := ctpquery.ParseQuery(renameTree(l.plan.Queries[i].Text, 1_000_000+2*i+order))
			if err != nil {
				return err
			}
			var miss, uncached time.Duration
			if order == 0 {
				uncached, err = timed(plain, renamed, false)
			}
			if err == nil {
				miss, err = timed(cached, renamed, false)
			}
			if err == nil && order == 1 {
				uncached, err = timed(plain, renamed, false)
			}
			if err != nil {
				return err
			}
			missOverUS = append(missOverUS, usOf(miss-uncached))
			hit, err := timed(cached, renamed, true)
			if err != nil {
				return err
			}
			hitUS = append(hitUS, usOf(hit))
		}
	}
	l.set("qcache.hit_us", Median(hitUS))
	l.set("qcache.miss_overhead_us", Median(missOverUS))

	// obs: the same warm requests through two servers that differ only in
	// Config.TraceOff, paired and order-swapped.
	handlers := [2]http.Handler{}
	for i, off := range []bool{false, true} {
		db, err := ctpquery.Open(g, serverOptions(l.spec.CacheBytes))
		if err != nil {
			return err
		}
		s, err := serve.New(db, serverConfig(off))
		if err != nil {
			return err
		}
		handlers[i] = s.Handler(false)
	}
	body := env.body(l.plan.Ops[0], 0)
	var on, off []float64
	for i := 0; i < 3000; i++ {
		for pass := 0; pass < 2; pass++ {
			which := pass
			if i%2 == 1 {
				which = 1 - pass
			}
			d, rec := direct(handlers[which], body)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("obs probe: HTTP %d", rec.Code)
			}
			if i < 100 {
				continue // both caches warm, both code paths hot
			}
			if which == 0 {
				on = append(on, usOf(d))
			} else {
				off = append(off, usOf(d))
			}
		}
	}
	if m := Median(off); m > 0 {
		l.set("obs.enabled_overhead_pct", 100*(Median(on)-m)/m)
	}

	if l.plan.Workload == ServeHot {
		return l.clusterLayer(g, handlers[0])
	}
	return nil
}

func renameTree(text string, n int) string {
	q := Query{Text: text, Rename: true}
	return q.TextFor(n)
}

// clusterLayer replays serve-hot's requests through Coordinator.Gather
// over LocalTransports: one group of two replicas (what a gather adds
// over calling the handler) and two single-member groups holding the
// same graph (every row arrives twice, so the keyed merge has work).
func (l *layerRun) clusterLayer(g *ctpquery.Graph, single http.Handler) error {
	newShard := func(name string) (cluster.Transport, error) {
		db, err := ctpquery.Open(g, serverOptions(l.spec.CacheBytes))
		if err != nil {
			return nil, err
		}
		s, err := serve.New(db, serverConfig(false))
		if err != nil {
			return nil, err
		}
		return &cluster.LocalTransport{Name: name, Handler: s.Handler(false)}, nil
	}
	var shards [4]cluster.Transport
	for i := range shards {
		var err error
		if shards[i], err = newShard("shard" + string(rune('a'+i))); err != nil {
			return err
		}
	}
	replicas, err := cluster.New(cluster.Config{}, []cluster.Group{{Name: "r", Members: shards[0:2]}})
	if err != nil {
		return err
	}
	parts, err := cluster.New(cluster.Config{}, []cluster.Group{
		{Name: "p0", Members: shards[2:3]}, {Name: "p1", Members: shards[3:4]},
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	var gatherUS, directUS, mergeUSPerRow []float64
	hedges, retries := 0, 0
	for i := 0; i < 1500; i++ {
		qi := l.plan.Ops[i%len(l.plan.Ops)]
		if l.plan.Queries[qi].Rename {
			continue // hot queries only: all three paths answer from cache
		}
		req := &cluster.Request{Query: l.plan.Queries[qi].Text, IncludeKeys: true}
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		d, rec := direct(single, body)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("cluster probe: HTTP %d", rec.Code)
		}
		t := time.Now()
		one := replicas.Gather(ctx, req)
		gd := time.Since(t)
		t = time.Now()
		two := parts.Gather(ctx, req)
		pd := time.Since(t)
		if one.StatusCode != http.StatusOK || two.StatusCode != http.StatusOK {
			return fmt.Errorf("cluster probe: gather answered HTTP %d / %d", one.StatusCode, two.StatusCode)
		}
		l.res.Attempted++
		if err := l.plan.Queries[qi].Check(two.RowCount, two.RowKeys); err != nil {
			l.res.fail("gather %s: %v", req.Query, err)
		}
		for _, info := range []*cluster.GatherInfo{one.Cluster, two.Cluster} {
			if info != nil {
				hedges += info.Hedges
				retries += info.Retries
			}
		}
		if i < 200 {
			continue // warm-up: the shards' caches fill
		}
		directUS = append(directUS, usOf(d))
		gatherUS = append(gatherUS, usOf(gd))
		if rows := two.RowCount; rows > 0 {
			// Two scattered sends run concurrently; what the partitioned
			// gather costs beyond the replicated one is the merge.
			mergeUSPerRow = append(mergeUSPerRow, usOf(pd-gd)/float64(2*rows))
		}
	}
	l.set("cluster.gather_overhead_us", Median(gatherUS)-Median(directUS))
	l.set("cluster.merge_us_per_row", Median(mergeUSPerRow))
	l.set("cluster.hedges", float64(hedges))
	l.set("cluster.retries", float64(retries))
	return nil
}
