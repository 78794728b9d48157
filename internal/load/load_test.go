package load

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/serve"
	"net/http/httptest"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 5},  // rank ceil(0.5*10) = 5
		{0.95, 10}, // rank round(9.5+0.5) = 10
		{0.99, 10},
		{1.00, 10},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("percentile(%.2f) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.01); got != 7 {
		t.Errorf("percentile(single, 0.01) = %v, want 7", got)
	}
}

func TestSummarizeLatencies(t *testing.T) {
	s := summarizeLatencies([]float64{4, 2, 8, 6})
	if s.Count != 4 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.MaxMS != 8 {
		t.Errorf("max = %v", s.MaxMS)
	}
	if math.Abs(s.MeanMS-5) > 1e-9 {
		t.Errorf("mean = %v", s.MeanMS)
	}
	if s.P50MS != 4 {
		t.Errorf("p50 = %v", s.P50MS)
	}
}

func TestSummarizeBucketsByOutcome(t *testing.T) {
	samples := []sample{
		{latencyMS: 1, code: 200, class: "cheap", cacheHit: true},
		{latencyMS: 50, code: 200, class: "analytical", timedOut: true},
		{latencyMS: 0.5, code: 429, class: "analytical"},
		{latencyMS: 0.5, code: 400, class: "cheap"},
		{latencyMS: 0.5, code: -1, class: "cheap"},
		{latencyMS: 2, code: 200, class: "cheap", bypass: true, cacheHit: true},
	}
	r := summarize("t", samples, 2*time.Second)
	if r.Requests != 6 || r.OK != 3 || r.Shed != 1 || r.Errors != 2 {
		t.Fatalf("buckets: req=%d ok=%d shed=%d err=%d", r.Requests, r.OK, r.Shed, r.Errors)
	}
	if r.Timeouts != 1 || r.CacheHits != 2 || r.CacheBypasses != 1 {
		t.Fatalf("timeouts=%d hits=%d bypasses=%d", r.Timeouts, r.CacheHits, r.CacheBypasses)
	}
	if math.Abs(r.CacheHitRatio-2.0/3.0) > 1e-9 {
		t.Errorf("hit ratio = %v", r.CacheHitRatio)
	}
	if math.Abs(r.ThroughputRPS-1.5) > 1e-9 {
		t.Errorf("throughput = %v", r.ThroughputRPS)
	}
	// Shed/error latencies must not leak into the summaries.
	if r.Overall.Count != 3 || r.Cheap.Count != 2 || r.Analytical.Count != 1 {
		t.Fatalf("latency counts: overall=%d cheap=%d analytical=%d",
			r.Overall.Count, r.Cheap.Count, r.Analytical.Count)
	}
	if r.Analytical.MaxMS != 50 {
		t.Errorf("analytical max = %v", r.Analytical.MaxMS)
	}
}

// Same seed, same mix: identical query sequence — the property that
// makes admission-on/off comparisons replay the exact same traffic.
func TestMixDeterministicPerSeed(t *testing.T) {
	for _, mk := range []func() *Mix{
		func() *Mix { return CacheHeavyMix(500, 16, 7) },
		func() *Mix { return AnalyticalHeavyMix(500) },
		func() *Mix {
			return WeightedMix("w", []*Mix{CacheHeavyMix(500, 16, 7), AnalyticalHeavyMix(500)}, []float64{0.5, 0.5})
		},
	} {
		a, b := mk(), mk()
		ra, rb := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
		for i := 0; i < 200; i++ {
			qa, qb := a.Next(ra), b.Next(rb)
			if qa != qb {
				t.Fatalf("%s: draw %d diverged:\n  %+v\n  %+v", a.Name, i, qa, qb)
			}
		}
	}
}

func TestAnalyticalQueryShape(t *testing.T) {
	r := AnalyticalQuery([]int{3, 14, 15}, 250)
	want := "SELECT ?w WHERE { CONNECT n3 n14 n15 AS ?w MAX 14 . }"
	if r.Query != want {
		t.Fatalf("query = %q, want %q", r.Query, want)
	}
	if r.TimeoutMS != 250 || r.Class != "analytical" {
		t.Fatalf("meta = %+v", r)
	}
	if _, err := ctpquery.ParseQuery(r.Query); err != nil {
		t.Fatalf("generated analytical query does not parse: %v", err)
	}
	if _, err := ctpquery.ParseQuery(CheapQuery(1, 2).Query); err != nil {
		t.Fatalf("generated cheap query does not parse: %v", err)
	}
}

// A short end-to-end replay against a real in-process admission server:
// the harness must count OK responses, observe cache hits, and finish
// within the open-loop schedule.
func TestReplayAgainstAdmissionServer(t *testing.T) {
	if testing.Short() {
		t.Skip("replay smoke skipped in -short")
	}
	g := ctpquery.RandomGraph(400, 1200, []string{"knows", "cites"}, 5)
	db, err := ctpquery.Open(g, &ctpquery.Options{Cache: &ctpquery.CacheConfig{MaxBytes: 16 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(db, serve.Config{
		DefaultTimeout: 5 * time.Second,
		MaxTimeout:     10 * time.Second,
		MaxRows:        100,
		Admission:      &admission.Config{MaxConcurrent: 2, CheapReserve: 1, QueueDepth: 8, MaxQueueWait: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler(false))
	defer srv.Close()

	// Node range matches the graph so cheap queries resolve real labels.
	plan := SteadyPlan(CacheHeavyMix(400, 8, 5), 40, 1*time.Second)
	res, err := Replay(context.Background(), srv.URL, plan, 5, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests < 20 {
		t.Fatalf("open loop launched only %d requests", res.Requests)
	}
	if res.OK == 0 {
		t.Fatalf("no OK responses: %+v", res)
	}
	if res.Errors > 0 {
		t.Fatalf("cache-heavy replay produced %d errors: %+v", res.Errors, res)
	}
	// An 8-query hot set at 40 rps must produce repeat hits.
	if res.CacheHits == 0 {
		t.Fatalf("expected cache hits on hot set: %+v", res)
	}
	if res.Overall.Count != res.OK {
		t.Fatalf("latency count %d != ok %d", res.Overall.Count, res.OK)
	}
	if res.Overall.P50MS <= 0 || res.Overall.P99MS < res.Overall.P50MS {
		t.Fatalf("percentiles inconsistent: %+v", res.Overall)
	}
}

// Replay honors context cancellation mid-phase.
func TestReplayCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Unroutable URL: requests fail fast, but the plan runs 10s unless
	// the context stops it.
	plan := SteadyPlan(AnalyticalHeavyMix(100), 10, 10*time.Second)
	start := time.Now()
	_, err := Replay(ctx, "http://127.0.0.1:1", plan, 1, RetryPolicy{})
	if err == nil {
		t.Fatal("want context error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancel took %v", elapsed)
	}
}
