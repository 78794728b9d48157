package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/fault"
	"ctpquery/internal/obs"
	"ctpquery/internal/testutil"
	"ctpquery/internal/wire"
)

// obsServer builds a traced server over a small random graph.
func obsServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true, Parallelism: 2},
		ctpquery.WithCache(16<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{DefaultTimeout: 10 * time.Second, MaxParallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	t.Cleanup(ts.Close)
	return s, ts
}

// TestObsQueryTrace: a query response names its trace, /debug/traces?id=
// serves that trace's span tree, and the tree holds the lifecycle spans
// the tentpole promises (parse, cache, engine eval with stage children).
func TestObsQueryTrace(t *testing.T) {
	_, ts := obsServer(t)
	code, out, fail := postQuery(t, ts.URL, wire.Request{Query: chaosServeQuery})
	if code != http.StatusOK {
		t.Fatalf("query answered %d: %s", code, fail.Error)
	}
	if out.TraceID == "" {
		t.Fatal("200 response carried no trace_id")
	}

	resp, err := http.Get(ts.URL + "/debug/traces?id=" + out.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces?id=%s: %d", out.TraceID, resp.StatusCode)
	}
	var trace obs.Trace
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatal(err)
	}
	if msg := trace.WellFormed(); msg != "" {
		t.Fatalf("trace malformed: %s", msg)
	}
	names := map[string]int{}
	for _, sp := range trace.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{"query", "parse", "cache", "engine.eval", "bgp", "join", "encode"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}
}

// TestObsMetricsAgreeWithStats: /metrics parses as strict Prometheus
// text and its counters agree with /stats — both render the server's
// one counter table.
func TestObsMetricsAgreeWithStats(t *testing.T) {
	_, ts := obsServer(t)
	for i := 0; i < 3; i++ {
		q := wire.Request{Query: fmt.Sprintf("SELECT ?w WHERE { CONNECT n%d n%d AS ?w MAX 4 LIMIT 1 . }", 2+i, 300+i)}
		if code, _, fail := postQuery(t, ts.URL, q); code != http.StatusOK {
			t.Fatalf("warmup query %d answered %d: %s", i, code, fail.Error)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	fams, err := obs.ParseExposition(mresp.Body)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats struct {
		Requests float64 `json:"requests"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}

	fam := obs.Find(fams, "ctp_requests_total")
	if fam == nil {
		t.Fatal("ctp_requests_total missing from /metrics")
	}
	v, ok := fam.Value("ctp_requests_total", nil)
	if !ok {
		t.Fatal("ctp_requests_total has no unlabeled sample")
	}
	if v != stats.Requests {
		t.Fatalf("/metrics ctp_requests_total %v != /stats requests %v", v, stats.Requests)
	}
	for _, name := range []string{"ctp_responses_total", "ctp_request_duration_seconds",
		"ctp_stage_duration_seconds", "ctp_trace_spans_started_total"} {
		if obs.Find(fams, name) == nil {
			t.Errorf("%s missing from /metrics", name)
		}
	}
}

// TestChaosSpanLeakContract is the span-leak contract: panics injected
// at every registered probe point must not leave a span un-ended. After
// the sweep settles, spans started == spans ended on the server's
// tracer, and every recorded trace is structurally well-formed.
func TestChaosSpanLeakContract(t *testing.T) {
	defer fault.Reset()
	s, ts := obsServer(t)
	baseline := runtime.NumGoroutine()

	for i, point := range fault.Points() {
		fault.Reset()
		if err := fault.Arm(point, fault.Fault{Kind: fault.Panic}); err != nil {
			t.Fatal(err)
		}
		q := wire.Request{Query: fmt.Sprintf(
			"SELECT ?w WHERE { CONNECT n%d n%d AS ?w MAX 16 LIMIT 1 . }", 3+i, 400+i)}
		postQuery(t, ts.URL, q) // outcome irrelevant; span accounting is the subject
	}
	fault.Reset()
	testutil.SettleGoroutines(t, baseline, 4)

	started, ended, _ := s.Tracer().SpanCounts()
	if started != ended {
		t.Fatalf("span leak under chaos: %d started, %d ended", started, ended)
	}
	for _, trace := range s.Tracer().Traces() {
		if msg := trace.WellFormed(); msg != "" {
			t.Errorf("trace %s malformed: %s", trace.TraceID, msg)
		}
	}
}

// TestObsTracingDisabled: with TraceOff the response carries no trace
// ID, /debug/traces stays empty, and nothing leaks.
func TestObsTracingDisabled(t *testing.T) {
	g := ctpquery.RandomGraph(400, 1200, []string{"knows"}, 7)
	db, err := ctpquery.Open(g, &ctpquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{DefaultTimeout: 5 * time.Second, TraceOff: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	code, out, fail := postQuery(t, ts.URL, wire.Request{Query: "SELECT ?w WHERE { CONNECT n1 n200 AS ?w MAX 8 LIMIT 1 . }"})
	if code != http.StatusOK {
		t.Fatalf("query answered %d: %s", code, fail.Error)
	}
	if out.TraceID != "" {
		t.Fatalf("tracing disabled yet response carries trace_id %q", out.TraceID)
	}
	if got := len(s.Tracer().Traces()); got != 0 {
		t.Fatalf("tracing disabled yet %d traces recorded", got)
	}
	started, ended, _ := s.Tracer().SpanCounts()
	if started != 0 || ended != 0 {
		t.Fatalf("tracing disabled yet span counters moved: %d/%d", started, ended)
	}
}
