package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/cluster"
	"ctpquery/internal/fault"
	"ctpquery/internal/obs"
	"ctpquery/internal/serve"
)

// The smokes drive whole in-process stacks — coordinator, shards, live
// store — with open-loop traffic instead of one surgical request. They
// assert counts and invariants only, never a latency, so the race
// detector on a loaded runner cannot flake them.

const (
	smokeNodes = 1000
	smokeSeed  = 1
)

// smokeDuration scales a smoke's full-length replay to 0.3 of it, halved
// again under -short.
func smokeDuration(full time.Duration) time.Duration {
	scale := 0.3
	if testing.Short() {
		scale = 0.15
	}
	return time.Duration(float64(full) * scale)
}

// smokeContext bounds a smoke, so a hung replay fails the test instead of
// stalling the job until the go test timeout.
func smokeContext(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func smokeGraph() *ctpquery.Graph {
	return ctpquery.RandomGraph(smokeNodes, 4*smokeNodes, []string{"knows", "cites", "funds", "worksFor"}, smokeSeed)
}

// smokeServer serves db through the production handler's configuration.
func smokeServer(t *testing.T, db *ctpquery.DB) *serve.Server {
	t.Helper()
	s, err := serve.New(db, serve.Config{
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     30 * time.Second,
		MaxRows:        100,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// smokeShard builds one in-process cluster member: its own DB (own cache)
// over the shared graph, running the parallel kernel the canonical
// merge-key order comes from.
func smokeShard(t *testing.T, g *ctpquery.Graph, name string) (*serve.Server, cluster.Transport) {
	t.Helper()
	db, err := ctpquery.Open(g, &ctpquery.Options{
		Parallel: true, Parallelism: 2,
		Cache: &ctpquery.CacheConfig{MaxBytes: 32 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := smokeServer(t, db)
	return s, &cluster.LocalTransport{Name: name, Handler: s.Handler(false)}
}

// smokeCoordinator serves a probing coordinator over groups.
func smokeCoordinator(t *testing.T, ctx context.Context, cfg cluster.Config, groups []cluster.Group) *httptest.Server {
	t.Helper()
	cfg.ProbeInterval = 500 * time.Millisecond
	cfg.DefaultTimeout = 10 * time.Second
	coord, err := cluster.New(cfg, groups)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.StartProbing(ctx))
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// The whole fault-tolerance stack — health routing, retry failover,
// breakers — under traffic: a cache-heavy replay through a coordinator
// fronting two same-data replicas while a bounded cluster.send fault
// kills a slice of shard sends. Every killed send must be absorbed by
// coordinator failover (the replica answers) or, at worst, a client retry
// riding out a breaker cooldown; none may surface as a client error.
func TestClusterSmoke(t *testing.T) {
	ctx := smokeContext(t)
	g := smokeGraph()
	_, a := smokeShard(t, g, "replica-a")
	_, b := smokeShard(t, g, "replica-b")
	srv := smokeCoordinator(t, ctx, cluster.Config{
		MaxAttempts: 3,
		RetryBase:   10 * time.Millisecond,
		RetryMax:    200 * time.Millisecond,
		// A short cooldown keeps the worst case — the injected fault trips
		// BOTH replicas' breakers back to back — briefer than one client
		// retry backoff, so the smoke proves recovery, not just refusal.
		BreakerThreshold: 3,
		BreakerCooldown:  250 * time.Millisecond,
	}, []cluster.Group{{Name: "g0", Members: []cluster.Transport{a, b}}})

	const rps = 30
	d := smokeDuration(6 * time.Second)
	// Let the cluster serve the first third of the replay healthy, then
	// fail the next 12 sends.
	t.Cleanup(fault.Reset)
	warm := uint64(rps * d.Seconds() / 3)
	if err := fault.Arm("cluster.send", fault.Fault{Kind: fault.Error, After: warm, Count: 12}); err != nil {
		t.Fatal(err)
	}

	plan := SteadyPlan(CacheHeavyMix(smokeNodes, 32, smokeSeed), rps, d)
	pol := RetryPolicy{MaxRetries: 3, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 500 * time.Millisecond}
	res, err := Replay(ctx, srv.URL, plan, smokeSeed, pol)
	if err != nil {
		t.Fatal(err)
	}
	fired := fault.Fired("cluster.send")
	t.Logf("%d requests: ok %d, shed %d, unavailable %d, errors %d; %d shard sends killed",
		res.Requests, res.OK, res.Shed, res.Unavailable, res.Errors, fired)
	if fired == 0 {
		t.Fatal("cluster.send fault never fired — the smoke exercised nothing")
	}
	if res.Errors > 0 {
		t.Fatalf("%d client-visible errors despite failover (%d faults injected)", res.Errors, fired)
	}
}

// scrapeMetrics GETs url and strict-parses the body as Prometheus text.
func scrapeMetrics(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	fams, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", url, err)
	}
	if len(fams) == 0 {
		t.Fatalf("%s: no metric families", url)
	}
}

// The observability surface end to end: after a short replay through a
// 2-partition traced coordinator, a probe query's response names its
// trace, /debug/traces?id= serves a well-formed span tree for it, the
// shard-side traces join it through the propagated Traceparent, and
// /metrics parses as strict Prometheus text on the coordinator and both
// shards.
func TestScrapeSmoke(t *testing.T) {
	ctx := smokeContext(t)
	g := smokeGraph()
	shards := make([]*serve.Server, 2)
	groups := make([]cluster.Group, 2)
	for i := range shards {
		s, tr := smokeShard(t, g, fmt.Sprintf("part-%d", i))
		shards[i] = s
		groups[i] = cluster.Group{Name: fmt.Sprintf("g%d", i), Members: []cluster.Transport{tr}}
	}
	srv := smokeCoordinator(t, ctx, cluster.Config{}, groups)

	plan := SteadyPlan(CacheHeavyMix(smokeNodes, 32, smokeSeed), 30, smokeDuration(3*time.Second))
	res, err := Replay(ctx, srv.URL, plan, smokeSeed, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK == 0 {
		t.Fatalf("no request succeeded (%d errors)", res.Errors)
	}

	// One probe query whose trace the assertions dissect.
	body, _ := json.Marshal(map[string]any{
		"query":      fmt.Sprintf("SELECT ?w WHERE { CONNECT n1 n%d AS ?w MAX 4 LIMIT 1 . }", smokeNodes/2),
		"timeout_ms": 5000,
		"omit_trees": true,
	})
	presp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var probe struct {
		TraceID string `json:"trace_id"`
	}
	err = json.NewDecoder(presp.Body).Decode(&probe)
	presp.Body.Close()
	if err != nil {
		t.Fatalf("probe query: %v", err)
	}
	if probe.TraceID == "" {
		t.Fatal("probe query response carries no trace_id")
	}

	// The coordinator's half, through the HTTP surface.
	tresp, err := http.Get(srv.URL + "/debug/traces?id=" + probe.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var ctrace obs.Trace
	err = json.NewDecoder(tresp.Body).Decode(&ctrace)
	tresp.Body.Close()
	if err != nil || tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces?id=%s: status %d, %v", probe.TraceID, tresp.StatusCode, err)
	}
	if msg := ctrace.WellFormed(); msg != "" {
		t.Fatalf("coordinator trace malformed: %s", msg)
	}
	sendSpans := map[string]bool{}
	groupSpans := 0
	for _, sp := range ctrace.Spans {
		switch sp.Name {
		case "send":
			sendSpans[sp.SpanID] = true
		case "group":
			groupSpans++
		}
	}
	if ctrace.Root != "gather" || groupSpans != 2 || len(sendSpans) < 2 {
		t.Fatalf("coordinator trace incoherent: root %q, %d group spans, %d send spans",
			ctrace.Root, groupSpans, len(sendSpans))
	}

	// Each shard must hold the same trace ID, rooted at a span whose
	// remote parent is one of the coordinator's send spans — the
	// Traceparent join, observed from both ends.
	for i, sh := range shards {
		strace := sh.Tracer().Trace(probe.TraceID)
		if strace == nil {
			t.Fatalf("shard %d recorded no trace %s", i, probe.TraceID)
		}
		if msg := strace.WellFormed(); msg != "" {
			t.Fatalf("shard %d trace malformed: %s", i, msg)
		}
		if !sendSpans[strace.RemoteParent] {
			t.Fatalf("shard %d trace parent %q is not a coordinator send span", i, strace.RemoteParent)
		}
	}

	scrapeMetrics(t, srv.URL+"/metrics")
	for _, sh := range shards {
		ssrv := httptest.NewServer(sh.Handler(false))
		scrapeMetrics(t, ssrv.URL+"/metrics")
		ssrv.Close()
	}
}

// Mixed read/write traffic against one live server: cache-heavy queries
// beside an open-loop ingest stream, with the compaction threshold low
// enough that background compactions land under the load. No query may
// fail, no batch may be refused, the epoch must move and compactions
// must run without aborting.
func TestLiveSmoke(t *testing.T) {
	ctx := smokeContext(t)
	g := smokeGraph().LiveWithConfig(ctpquery.LiveConfig{CompactThreshold: 8})
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true}, ctpquery.WithCache(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(smokeServer(t, db).Handler(false))
	defer srv.Close()

	d := smokeDuration(4 * time.Second)
	plan := SteadyPlan(CacheHeavyMix(smokeNodes, 32, smokeSeed), 30, d)
	var (
		wg        sync.WaitGroup
		replayRes *Result
		ingestRes *IngestResult
		replayErr error
		ingestErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		replayRes, replayErr = Replay(ctx, srv.URL, plan, smokeSeed, RetryPolicy{})
	}()
	go func() {
		defer wg.Done()
		ingestRes, ingestErr = IngestReplay(ctx, srv.URL, 15, d, smokeNodes, smokeSeed+1)
	}()
	wg.Wait()
	if replayErr != nil {
		t.Fatal(replayErr)
	}
	if ingestErr != nil {
		t.Fatal(ingestErr)
	}
	g.Quiesce()

	st, ok := g.StoreStats()
	if !ok {
		t.Fatal("server graph reports no store stats")
	}
	t.Logf("queries ok %d, ingest ok %d (%d ops), epoch %d, %d compactions",
		replayRes.OK, ingestRes.OK, ingestRes.Ops, st.Epoch, st.Compactions)
	switch {
	case replayRes.OK == 0 || replayRes.Errors > 0:
		t.Fatalf("queries under concurrent ingest: ok=%d errors=%d", replayRes.OK, replayRes.Errors)
	case ingestRes.OK == 0 || ingestRes.Failures > 0:
		t.Fatalf("ingest ok=%d failures=%d", ingestRes.OK, ingestRes.Failures)
	case st.Epoch == 0:
		t.Fatal("epoch never advanced")
	case st.Compactions == 0:
		t.Fatalf("no background compaction ran (epoch %d, %d pending ops)", st.Epoch, st.PendingOps)
	case st.CompactAborts > 0:
		t.Fatalf("%d compactions aborted", st.CompactAborts)
	}
}
