package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/wire"
)

// newTestServer serves a deterministic generated graph (800 nodes, 2400
// edges, connected by construction) with the result cache enabled, the
// way a production deployment would run. Admission is off: these tests
// pin the serving semantics that exist independent of it (admission has
// its own suite in admission_test.go).
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true, TrackAllocs: true},
		ctpquery.WithCache(64<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{DefaultTimeout: 10 * time.Second, MaxTimeout: 30 * time.Second,
		MaxRows: 1000, MaxParallelism: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(true))
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, url string, req wire.Request) (int, wire.Response[wire.Row], wire.Error) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wire.Response[wire.Row]
	var fail wire.Error
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil {
			t.Fatalf("decoding error response: %v", err)
		}
	}
	return resp.StatusCode, out, fail
}

// TestConcurrentQueries fires 16 connection searches at once — different
// node pairs each — and requires every one to come back complete. The
// graph is connected, so every pair has a connecting tree within the MAX
// bound.
func TestConcurrentQueries(t *testing.T) {
	s, ts := newTestServer(t)

	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := fmt.Sprintf(
				"SELECT ?w WHERE { CONNECT n%d n%d AS ?w MAX 16 LIMIT 2 . }",
				i+1, 400+i)
			code, out, fail := postQuery(t, ts.URL, wire.Request{Query: q, TimeoutMS: 20000})
			if code != http.StatusOK {
				errs <- fmt.Errorf("query %d: status %d: %s", i, code, fail.Error)
				return
			}
			if out.RowCount < 1 {
				errs <- fmt.Errorf("query %d: no connection found", i)
				return
			}
			if len(out.Rows) == 0 || out.Rows[0]["w"].Tree == nil {
				errs <- fmt.Errorf("query %d: response carries no tree", i)
				return
			}
			if tr := out.Rows[0]["w"].Tree; tr.Size < 1 || len(tr.Edges) != tr.Size {
				errs <- fmt.Errorf("query %d: tree size %d with %d edges", i, tr.Size, len(tr.Edges))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.requests.Load(); got != n {
		t.Errorf("requests metric = %d, want %d", got, n)
	}
	if got := s.failures.Load(); got != 0 {
		t.Errorf("failures metric = %d, want 0", got)
	}
}

// TestPerRequestTimeout gives an exhaustive 6-seed enumeration a 25ms
// budget: the server must answer promptly with the partial results
// flagged timed_out, not hang until the search finishes.
func TestPerRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t)
	start := time.Now()
	code, out, fail := postQuery(t, ts.URL, wire.Request{
		Query:     "SELECT ?w WHERE { CONNECT n1 n2 n3 n4 n5 n6 AS ?w . }",
		TimeoutMS: 25,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, fail.Error)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout ignored: took %v", elapsed)
	}
	if !out.TimedOut {
		t.Error("want timed_out=true")
	}
	if got := s.timeouts.Load(); got != 1 {
		t.Errorf("timeouts metric = %d, want 1", got)
	}
}

func TestMaxTimeoutCap(t *testing.T) {
	g := ctpquery.SampleGraph()
	db, err := ctpquery.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Server cap of 1ms beats the huge requested budget; the query is
	// trivial, so it still completes — the point is the request is
	// accepted and served under the cap, not rejected.
	s, err := New(db, Config{MaxTimeout: time.Millisecond, MaxParallelism: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()
	code, _, fail := postQuery(t, ts.URL, wire.Request{
		Query:     "SELECT ?w WHERE { CONNECT Alice Bob AS ?w MAX 2 . }",
		TimeoutMS: 3600_000,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, fail.Error)
	}
}

func TestAlgorithmOverride(t *testing.T) {
	_, ts := newTestServer(t)
	code, out, fail := postQuery(t, ts.URL, wire.Request{
		Query:     "SELECT ?w WHERE { CONNECT n1 n400 AS ?w MAX 16 LIMIT 1 . }",
		Algorithm: "bft",
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, fail.Error)
	}
	if out.Algorithm != "BFT" {
		t.Errorf("algorithm = %q, want BFT", out.Algorithm)
	}

	code, _, fail = postQuery(t, ts.URL, wire.Request{Query: "SELECT ?w WHERE { CONNECT n1 n2 AS ?w . }", Algorithm: "Dijkstra"})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status %d, want 400", code)
	}
	if fail.Error == "" {
		t.Error("unknown algorithm: want an error message")
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name string
		req  wire.Request
	}{
		{"empty", wire.Request{}},
		{"parse error", wire.Request{Query: "SELECT ?w WHERE { CONNECT a b . }"}},
		{"validation error", wire.Request{Query: "SELECT ?zzz WHERE { ?x knows ?y . }"}},
	} {
		code, _, fail := postQuery(t, ts.URL, tc.req)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if fail.Error == "" {
			t.Errorf("%s: want an error message", tc.name)
		}
	}

	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", resp.StatusCode)
	}
}

func TestMaxRowsTrim(t *testing.T) {
	_, ts := newTestServer(t)
	code, out, fail := postQuery(t, ts.URL, wire.Request{
		Query:   "SELECT ?w WHERE { CONNECT n1 n400 AS ?w MAX 16 LIMIT 5 . }",
		MaxRows: 1,
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, fail.Error)
	}
	if len(out.Rows) > 1 {
		t.Errorf("max_rows=1 but %d rows serialized", len(out.Rows))
	}
	if out.RowCount > 1 && !out.RowsTruncated {
		t.Error("want rows_truncated when max_rows trims the payload")
	}
}

func TestHealthAndStats(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Nodes  int    `json:"nodes"`
		Edges  int    `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Nodes != 800 || health.Edges < 2400 {
		t.Errorf("healthz = %+v", health)
	}

	code, out, fail := postQuery(t, ts.URL, wire.Request{Query: "SELECT ?w WHERE { CONNECT n1 n2 AS ?w MAX 16 LIMIT 1 . }"})
	if code != http.StatusOK {
		t.Fatalf("query status %d: %s", code, fail.Error)
	}
	// The per-query search report must show actual effort: the search
	// built trees and queued grows.
	if out.Search.TreesGenerated <= 0 || out.Search.TreesKept <= 0 {
		t.Errorf("per-query search stats empty: %+v", out.Search)
	}
	if out.Search.PeakQueueLen <= 0 {
		t.Errorf("peak_queue_len = %d, want > 0", out.Search.PeakQueueLen)
	}
	if out.Search.PeakTrees <= 0 {
		t.Errorf("peak_trees = %d, want > 0", out.Search.PeakTrees)
	}
	// The TrackAllocs probe reads runtime/metrics' heap-alloc counter,
	// which the runtime aggregates lazily — a small search can read a
	// zero delta. Probe the plumbing with a search heavy enough to cross
	// GC cycles (which flush the per-P stat caches): a three-seed
	// enumeration allocating tens of MB.
	code, heavy, fail := postQuery(t, ts.URL, wire.Request{
		Query: "SELECT ?w WHERE { CONNECT n1 n2 n3 AS ?w MAX 14 . }", TimeoutMS: 500})
	if code != http.StatusOK {
		t.Fatalf("heavy query status %d: %s", code, fail.Error)
	}
	if heavy.Search.Allocations == 0 {
		t.Errorf("allocations = 0 on a heavy search, want > 0 with TrackAllocs")
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Requests   int64    `json:"requests"`
		InFlight   int64    `json:"in_flight"`
		Algorithms []string `json:"algorithms"`
		Search     struct {
			TreesGenerated int64  `json:"trees_generated"`
			PeakQueueLen   int64  `json:"peak_queue_len"`
			PeakTrees      int64  `json:"peak_trees"`
			Allocations    uint64 `json:"allocations"`
		} `json:"search"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Requests < 1 || stats.InFlight != 0 || len(stats.Algorithms) != 8 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Search.TreesGenerated <= 0 || stats.Search.PeakQueueLen <= 0 {
		t.Errorf("aggregated search stats empty: %+v", stats.Search)
	}
}

// /stats "search" is the fold of the per-query reports the server sent:
// counters sum (a two-clause query already sums its clauses), queue and
// tree peaks are high-water marks over queries, workers sum per index.
// The repeat of the first query is a cache hit and must add nothing.
func TestStatsFoldPerQueryReports(t *testing.T) {
	_, ts := newTestServer(t)
	two, four := 2, 4
	var want wire.Search
	for _, req := range []wire.Request{
		{Query: "SELECT ?w WHERE { CONNECT n1 n2 AS ?w MAX 16 LIMIT 1 . }"},
		{Query: "SELECT ?v ?w WHERE { CONNECT n3 n4 AS ?v MAX 4 . CONNECT n5 n6 AS ?w MAX 4 . }"},
		{Query: "SELECT ?w WHERE { CONNECT n7 n8 AS ?w MAX 5 . }", Parallelism: &four},
		{Query: "SELECT ?w WHERE { CONNECT n9 n10 AS ?w MAX 5 . }", Parallelism: &two},
		{Query: "SELECT ?w WHERE { CONNECT n1 n2 AS ?w MAX 16 LIMIT 1 . }"},
	} {
		code, out, fail := postQuery(t, ts.URL, req)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.Query, code, fail.Error)
		}
		if out.Cache.Hit {
			continue
		}
		got := out.Search
		want.TreesGenerated += got.TreesGenerated
		want.TreesRecycled += got.TreesRecycled
		want.PeakQueueLen = max(want.PeakQueueLen, got.PeakQueueLen)
		want.PeakTrees = max(want.PeakTrees, got.PeakTrees)
		for i, w := range got.Workers {
			if i == len(want.Workers) {
				want.Workers = append(want.Workers, wire.Worker{})
			}
			want.Workers[i].Ops += w.Ops
			want.Workers[i].Kept += w.Kept
		}
	}
	if len(want.Workers) != 4 || want.Workers[3].Ops == 0 {
		t.Fatalf("test premise broken: per-query workers folded to %+v", want.Workers)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Search wire.Search `json:"search"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	got := stats.Search
	if got.TreesGenerated != want.TreesGenerated || got.TreesRecycled != want.TreesRecycled ||
		got.PeakQueueLen != want.PeakQueueLen || got.PeakTrees != want.PeakTrees {
		t.Errorf("/stats search = %+v, want the fold %+v", got, want)
	}
	if len(got.Workers) != len(want.Workers) {
		t.Fatalf("/stats workers = %d entries, want %d", len(got.Workers), len(want.Workers))
	}
	for i, w := range want.Workers {
		if got.Workers[i].Ops != w.Ops || got.Workers[i].Kept != w.Kept {
			t.Errorf("/stats worker %d = %+v, want ops %d kept %d", i, got.Workers[i], w.Ops, w.Kept)
		}
	}
}

// TestPprofEndpoint: the handler serves /debug/pprof/ when enabled and
// 404s it when not.
func TestPprofEndpoint(t *testing.T) {
	_, ts := newTestServer(t) // pprof enabled
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: status %d, want 200", resp.StatusCode)
	}

	g := ctpquery.SampleGraph()
	db, err := ctpquery.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{MaxParallelism: 16})
	if err != nil {
		t.Fatal(err)
	}
	off := httptest.NewServer(s.Handler(false))
	defer off.Close()
	resp, err = http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof disabled: status %d, want 404", resp.StatusCode)
	}
}

// A "parallelism" request field must engage the sharded runtime, report
// the degree and per-worker effort in the response, and return the same
// result set as the sequential default.
func TestParallelismOverride(t *testing.T) {
	s, ts := newTestServer(t)
	q := `SELECT ?w WHERE { CONNECT n3 n11 AS ?w MAX 4 . }`

	code, seq, fail := postQuery(t, ts.URL, wire.Request{Query: q})
	if code != http.StatusOK {
		t.Fatalf("sequential query failed: %+v", fail)
	}
	if seq.Search.Parallelism != 0 || len(seq.Search.Workers) != 0 {
		t.Fatalf("sequential query reported parallel search: %+v", seq.Search)
	}

	par := 4
	code, pres, fail := postQuery(t, ts.URL, wire.Request{Query: q, Parallelism: &par})
	if code != http.StatusOK {
		t.Fatalf("parallel query failed: %+v", fail)
	}
	if pres.Search.Parallelism != 4 || len(pres.Search.Workers) != 4 {
		t.Fatalf("parallel search report wrong: %+v", pres.Search)
	}
	if pres.RowCount != seq.RowCount {
		t.Fatalf("parallel rows %d != sequential rows %d", pres.RowCount, seq.RowCount)
	}

	// Requested degrees clamp to the server's -max-parallelism ceiling
	// (16 in newTestServer): each worker pins an OS thread, so clients
	// must not be able to spawn unbounded workers.
	huge := 200
	code, capped, fail := postQuery(t, ts.URL, wire.Request{Query: q, Parallelism: &huge})
	if code != http.StatusOK {
		t.Fatalf("capped query failed: %+v", fail)
	}
	if capped.Search.Parallelism != 16 {
		t.Fatalf("parallelism=200 ran with %d workers, want clamp to 16", capped.Search.Parallelism)
	}

	// Negative degrees resolve to GOMAXPROCS before the clamp, so they
	// cannot sidestep the ceiling either.
	neg := -1
	code, negRes, fail := postQuery(t, ts.URL, wire.Request{Query: q, Parallelism: &neg})
	if code != http.StatusOK {
		t.Fatalf("negative-parallelism query failed: %+v", fail)
	}
	if want := min(runtime.GOMAXPROCS(0), 16); negRes.Search.Parallelism != want {
		t.Fatalf("parallelism=-1 ran with %d workers, want %d", negRes.Search.Parallelism, want)
	}

	// /stats must now expose per-worker aggregates.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Search struct {
			Workers []map[string]any `json:"workers"`
		} `json:"search"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// The 4-worker and the clamped 16-worker query both aggregated, so
	// the index-aligned table has 16 entries.
	if len(stats.Search.Workers) != 16 {
		t.Fatalf("/stats workers = %d entries, want 16", len(stats.Search.Workers))
	}
	_ = s
}

// An invalid parallelism+algorithm combination must fail cleanly.
func TestParallelismWithBadAlgorithm(t *testing.T) {
	_, ts := newTestServer(t)
	par := 2
	code, _, fail := postQuery(t, ts.URL, wire.Request{
		Query: `SELECT ?w WHERE { CONNECT n1 n2 AS ?w . }`, Algorithm: "nope", Parallelism: &par})
	if code != http.StatusBadRequest || fail.Error == "" {
		t.Fatalf("bad algorithm accepted: code %d", code)
	}
}

// statsCache decodes the /stats cache section.
type statsCache struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Rejected  int64 `json:"rejected"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

func getStatsCache(t *testing.T, url string) statsCache {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Cache *statsCache `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Cache == nil {
		t.Fatal("/stats has no cache section on a cache-enabled server")
	}
	return *stats.Cache
}

// TestCacheSingleflightServer fires K identical queries concurrently and
// requires that exactly one underlying search ran: one cache miss, K-1
// hits or coalesced waiters, and server-wide search effort equal to a
// single execution. Run under -race in CI.
func TestCacheSingleflightServer(t *testing.T) {
	s, ts := newTestServer(t)
	const k = 12
	// No LIMIT: the result must be complete so it is admitted.
	const query = "SELECT ?w WHERE { CONNECT n1 n400 AS ?w MAX 6 . }"

	var wg sync.WaitGroup
	responses := make([]wire.Response[wire.Row], k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, out, fail := postQuery(t, ts.URL, wire.Request{Query: query, TimeoutMS: 30000})
			if code != http.StatusOK {
				t.Errorf("query %d: status %d: %s", i, code, fail.Error)
				return
			}
			responses[i] = out
		}(i)
	}
	wg.Wait()

	leaders := 0
	for i, out := range responses {
		if out.Cache == nil {
			t.Fatalf("response %d carries no cache report", i)
		}
		if !out.Cache.Hit && !out.Cache.Coalesced {
			leaders++
		}
		if out.RowCount != responses[0].RowCount {
			t.Fatalf("response %d: %d rows, others saw %d", i, out.RowCount, responses[0].RowCount)
		}
		if out.TimedOut {
			t.Fatalf("response %d timed out; test premise broken", i)
		}
	}
	if leaders != 1 {
		t.Errorf("%d requests executed a search, want exactly 1", leaders)
	}

	cs := getStatsCache(t, ts.URL)
	if cs.Misses != 1 {
		t.Errorf("cache misses = %d, want 1 (singleflight)", cs.Misses)
	}
	if cs.Hits+cs.Coalesced != k-1 {
		t.Errorf("hits %d + coalesced %d = %d, want %d", cs.Hits, cs.Coalesced, cs.Hits+cs.Coalesced, k-1)
	}
	if cs.Entries != 1 || cs.Bytes <= 0 {
		t.Errorf("cache stores %d entries / %d bytes, want 1 / > 0", cs.Entries, cs.Bytes)
	}

	// "Exactly one search" is also visible in the server's aggregated
	// effort: hits and coalesced waiters do not re-add the leader's
	// SearchStats, so the total equals one execution's report.
	if got, want := s.searchTotals().TreesGenerated, responses[0].Search.TreesGenerated; got != want {
		t.Errorf("aggregated trees_generated = %d, want one search's %d", got, want)
	}
}

// A request that timed out is served its partial result but the entry is
// never admitted: the next identical request runs the search again.
func TestCacheNeverServesStalePartial(t *testing.T) {
	_, ts := newTestServer(t)
	// The exhaustive 6-seed enumeration needs far more than 1ms, so the
	// first answer is deterministically partial.
	req := wire.Request{
		Query:     "SELECT ?w WHERE { CONNECT n1 n2 n3 n4 n5 n6 AS ?w . }",
		TimeoutMS: 1,
	}
	code, out, fail := postQuery(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, fail.Error)
	}
	if !out.TimedOut {
		t.Fatal("1ms budget did not time out; test premise broken")
	}
	cs := getStatsCache(t, ts.URL)
	if cs.Entries != 0 || cs.Rejected != 1 {
		t.Fatalf("partial result admitted: %+v", cs)
	}

	code, out2, fail := postQuery(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("second status %d: %s", code, fail.Error)
	}
	if out2.Cache == nil || out2.Cache.Hit {
		t.Fatal("second request was served the stale partial from cache")
	}
	if cs := getStatsCache(t, ts.URL); cs.Misses != 2 {
		t.Fatalf("second request did not re-execute: %+v", cs)
	}
}

// resolveParallelism pins the per-request resolution order: the
// GOMAXPROCS sentinel resolves before the -max-parallelism clamp, and
// maxParallelism == 0 means requests cannot override at all.
func TestResolveParallelism(t *testing.T) {
	gmp := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name               string
		maxParallelism     int
		requested, fallbck int
		want               int
	}{
		{"plain request under cap", 16, 4, 0, 4},
		{"request above cap clamps", 16, 200, 0, 16},
		{"sentinel resolves before clamp", 2, -1, 0, min(gmp, 2)},
		{"any negative is the sentinel", 2, -7, 0, min(gmp, 2)},
		{"cap zero ignores request", 0, 8, 3, 3},
		{"cap zero ignores sentinel", 0, -1, 3, 3},
	} {
		s := &Server{maxParallelism: tc.maxParallelism}
		if got := s.resolveParallelism(tc.requested, tc.fallbck); got != tc.want {
			t.Errorf("%s: resolveParallelism(%d, %d) with cap %d = %d, want %d",
				tc.name, tc.requested, tc.fallbck, tc.maxParallelism, got, tc.want)
		}
	}
}

// With -max-parallelism 0, the flag help promises "requests may not
// override"; pin it end to end, not just in the helper.
func TestMaxParallelismZeroNoOverride(t *testing.T) {
	g := ctpquery.RandomGraph(200, 600, []string{"t"}, 5)
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{DefaultTimeout: 10 * time.Second, MaxTimeout: 30 * time.Second,
		MaxRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	q := "SELECT ?w WHERE { CONNECT n1 n100 AS ?w MAX 8 LIMIT 1 . }"
	for _, requested := range []int{8, -1} {
		requested := requested
		code, out, fail := postQuery(t, ts.URL, wire.Request{Query: q, Parallelism: &requested})
		if code != http.StatusOK {
			t.Fatalf("parallelism=%d: status %d: %s", requested, code, fail.Error)
		}
		// The server default is the sequential kernel (Parallelism 0), and
		// the override must be ignored.
		if out.Search.Parallelism != 0 || len(out.Search.Workers) != 0 {
			t.Errorf("parallelism=%d with cap 0 ran %d workers, want the server default (sequential)",
				requested, out.Search.Parallelism)
		}
	}
}
