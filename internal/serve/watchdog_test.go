package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/wire"
)

// newWatchdogServer builds a server with cache + admission + watchdog
// (soft 100 MiB, hard 200 MiB) and primes the cache with one entry, so
// ladder tests can observe shedding.
func newWatchdogServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true, Parallelism: 4},
		ctpquery.WithCache(16<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{
		DefaultTimeout: 5 * time.Second,
		MaxParallelism: 8,
		Admission:      &admission.Config{MaxConcurrent: 4, QueueDepth: 8, MaxQueueWait: time.Second, CostBudget: 1000},
		MemSoftBytes:   100 << 20,
		MemHardBytes:   200 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	t.Cleanup(ts.Close)
	if code, _, fail := postQuery(t, ts.URL, wire.Request{Query: chaosServeQuery}); code != http.StatusOK {
		t.Fatalf("priming query failed: %d %s", code, fail.Error)
	}
	return s, ts
}

func healthz(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var payload map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, payload
}

// TestChaosWatchdogLadder drives the degradation ladder with synthetic
// heap samples: soft pressure sheds half the cache, halves the
// parallelism ceiling, and scales the admission budget; hard pressure
// empties the cache, caps parallelism at 1, and quarters the budget;
// recovery restores everything. Hysteresis holds the level inside the
// recovery band.
func TestChaosWatchdogLadder(t *testing.T) {
	s, ts := newWatchdogServer(t)
	if s.wd == nil {
		t.Fatal("watchdog not constructed")
	}

	// Healthy baseline.
	if code, p := healthz(t, ts.URL); code != http.StatusOK || p["status"] != "ok" {
		t.Fatalf("baseline health: %d %v", code, p["status"])
	}
	cs, _ := s.base.CacheStats()
	if cs.Bytes == 0 {
		t.Fatal("cache not primed")
	}

	// Soft watermark: degraded, cache halved, ceiling GOMAXPROCS/2, budget 0.5.
	s.wd.check(120 << 20)
	if s.Health() != HealthDegraded {
		t.Fatalf("soft pressure: health %v, want degraded", s.Health())
	}
	if code, p := healthz(t, ts.URL); code != http.StatusOK || p["status"] != "degraded" {
		t.Fatalf("degraded must still answer 200: %d %v", code, p["status"])
	}
	wantHalf := int32(runtime.GOMAXPROCS(0) / 2)
	if wantHalf < 1 {
		wantHalf = 1
	}
	if got := s.parCeiling.Load(); got != wantHalf {
		t.Fatalf("soft ceiling = %d, want %d", got, wantHalf)
	}
	if bs := s.ctrl.Stats().BudgetScale; bs != 0.5 {
		t.Fatalf("soft budget scale = %v, want 0.5", bs)
	}

	// Hard watermark: cache emptied, ceiling 1, budget quartered.
	s.wd.check(250 << 20)
	if got := s.parCeiling.Load(); got != 1 {
		t.Fatalf("hard ceiling = %d, want 1", got)
	}
	if bs := s.ctrl.Stats().BudgetScale; bs != 0.25 {
		t.Fatalf("hard budget scale = %v, want 0.25", bs)
	}
	if cs, _ := s.base.CacheStats(); cs.Bytes != 0 {
		t.Fatalf("hard pressure left %d cache bytes", cs.Bytes)
	}
	// A query under the ceiling still works — degraded, not down.
	if code, _, fail := postQuery(t, ts.URL, wire.Request{Query: chaosServeQuery}); code != http.StatusOK {
		t.Fatalf("query under hard pressure: %d %s", code, fail.Error)
	}

	// Hysteresis: inside the recovery band (between 4/5·soft and soft)
	// the level must hold, not flap.
	s.wd.check(90 << 20)
	if s.Health() != HealthDegraded {
		t.Fatal("hysteresis band dropped the degraded level")
	}

	// Full recovery below 4/5 of soft: everything restored.
	s.wd.check(10 << 20)
	if s.Health() != HealthOK {
		t.Fatalf("recovery: health %v, want ok", s.Health())
	}
	if got := s.parCeiling.Load(); got != 0 {
		t.Fatalf("recovery ceiling = %d, want 0 (none)", got)
	}
	if bs := s.ctrl.Stats().BudgetScale; bs != 1 {
		t.Fatalf("recovery budget scale = %v, want 1", bs)
	}
}

// TestWatchdogCeilingCapsGOMAXPROCSDefault: a server whose default is the
// GOMAXPROCS sentinel (-1) runs one worker per search at the hard
// watermark — from the default, and from a request override the policy
// (MaxParallelism 0) turns back into that default.
func TestWatchdogCeilingCapsGOMAXPROCSDefault(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{DefaultTimeout: 5 * time.Second, MemSoftBytes: 100 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()
	s.wd.check(250 << 20)
	eight := 8
	for _, par := range []*int{nil, &eight} {
		code, out, fail := postQuery(t, ts.URL, wire.Request{Query: chaosServeQuery, Parallelism: par})
		if code != http.StatusOK {
			t.Fatalf("query under hard pressure: %d %s", code, fail.Error)
		}
		if out.Search.Parallelism != 1 {
			t.Fatalf("override=%v: ran with %d workers at the hard watermark, want 1", par != nil, out.Search.Parallelism)
		}
	}
}

// TestChaosDrainingWinsOverPressure: once draining, neither pressure nor
// recovery may change the health state, and /healthz answers 503.
func TestChaosDrainingWinsOverPressure(t *testing.T) {
	s, ts := newWatchdogServer(t)
	s.SetDraining()
	if code, p := healthz(t, ts.URL); code != http.StatusServiceUnavailable || p["status"] != "draining" {
		t.Fatalf("draining health: %d %v", code, p["status"])
	}
	s.wd.check(250 << 20) // pressure must not override draining
	if s.Health() != HealthDraining {
		t.Fatalf("pressure overrode draining: %v", s.Health())
	}
	s.wd.check(1 << 20) // nor recovery
	if s.Health() != HealthDraining {
		t.Fatalf("recovery overrode draining: %v", s.Health())
	}
}

// TestWatchdogDisabledWithoutWatermark: the zero config builds no
// watchdog and /healthz has no memory section.
func TestWatchdogDisabledWithoutWatermark(t *testing.T) {
	g := ctpquery.SampleGraph()
	db, err := ctpquery.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s.wd != nil {
		t.Fatal("watchdog built without a soft watermark")
	}
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()
	code, p := healthz(t, ts.URL)
	if code != http.StatusOK || p["status"] != "ok" {
		t.Fatalf("health: %d %v", code, p["status"])
	}
	if _, ok := p["memory"]; ok {
		t.Fatal("memory section present without a watchdog")
	}
}

// TestWatchdogDefaults: hard defaults to 2x soft, interval to 5s.
func TestWatchdogDefaults(t *testing.T) {
	g := ctpquery.SampleGraph()
	db, err := ctpquery.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{MemSoftBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if s.wd.hard != 128<<20 {
		t.Fatalf("default hard = %d, want 2x soft", s.wd.hard)
	}
	if s.wd.interval != 5*time.Second {
		t.Fatalf("default interval = %v", s.wd.interval)
	}
	if heapBytes() <= 0 {
		t.Fatal("heapBytes() reported nothing")
	}
}
