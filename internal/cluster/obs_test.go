package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"ctpquery/internal/obs"
)

// tracingTransport wraps a scripted backend and records the span
// context each Send observed in its context — the value setTraceparent
// stamps on the wire for the real transports.
type tracingTransport struct {
	name string
	fn   func(n int, req *Request) (*Response, error)

	mu    sync.Mutex
	sends int
	seen  []obs.SpanContext
}

func (f *tracingTransport) Target() string { return f.name }

func (f *tracingTransport) Send(ctx context.Context, req *Request) (*Response, error) {
	f.mu.Lock()
	f.sends++
	n := f.sends
	if sp := obs.FromContext(ctx); sp != nil {
		f.seen = append(f.seen, sp.Context())
	}
	f.mu.Unlock()
	return f.fn(n, req)
}

func (f *tracingTransport) Probe(context.Context) (HealthReport, error) {
	return HealthReport{Status: "ok", StatusCode: 200}, nil
}

func (f *tracingTransport) seenContexts() []obs.SpanContext {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]obs.SpanContext(nil), f.seen...)
}

func postGather(t *testing.T, url, query string) (int, map[string]json.RawMessage) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"query": query})
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestGatherTracePropagation: a gather through the HTTP handler yields
// one trace whose send spans are exactly the contexts the transports
// saw — the IDs a real wire transport would propagate to the shards.
func TestGatherTracePropagation(t *testing.T) {
	a := &tracingTransport{name: "a", fn: alwaysOK("k1")}
	b := &tracingTransport{name: "b", fn: alwaysOK("k2")}
	c, err := New(fastConfig(), []Group{
		{Name: "g0", Members: []Transport{a}},
		{Name: "g1", Members: []Transport{b}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	code, out := postGather(t, ts.URL, "q")
	if code != http.StatusOK {
		t.Fatalf("gather answered %d", code)
	}
	var traceID string
	if err := json.Unmarshal(out["trace_id"], &traceID); err != nil || traceID == "" {
		t.Fatalf("gather response trace_id missing (%v)", err)
	}

	trace := c.Tracer().Trace(traceID)
	if trace == nil {
		t.Fatalf("trace %s not in the flight recorder", traceID)
	}
	if msg := trace.WellFormed(); msg != "" {
		t.Fatalf("trace malformed: %s", msg)
	}
	if trace.Root != "gather" {
		t.Fatalf("root span %q, want gather", trace.Root)
	}
	sendIDs := map[string]bool{}
	groups := 0
	for _, sp := range trace.Spans {
		switch sp.Name {
		case "send":
			sendIDs[sp.SpanID] = true
		case "group":
			groups++
		}
	}
	if groups != 2 || len(sendIDs) != 2 {
		t.Fatalf("trace has %d group and %d send spans, want 2 and 2", groups, len(sendIDs))
	}
	for _, tr := range []*tracingTransport{a, b} {
		seen := tr.seenContexts()
		if len(seen) != 1 {
			t.Fatalf("transport %s saw %d traced sends, want 1", tr.name, len(seen))
		}
		if hexID := seen[0].TraceID; trace.TraceID != hex16(hexID) {
			t.Fatalf("transport %s saw trace %016x, want %s", tr.name, hexID, trace.TraceID)
		}
		if !sendIDs[hex16(seen[0].SpanID)] {
			t.Fatalf("transport %s saw span %016x, not one of the trace's send spans", tr.name, seen[0].SpanID)
		}
	}
}

// hex16 mirrors the obs package's span-ID rendering for assertions.
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// TestCoordinatorMetricsAndStats: /metrics parses as strict Prometheus
// text, its counters agree with /stats (both render one counter table), and
// the breaker-transition counter observes a closed→open trip.
func TestCoordinatorMetricsAndStats(t *testing.T) {
	flaky := &tracingTransport{name: "flaky", fn: alwaysFail()}
	ok := &tracingTransport{name: "ok", fn: alwaysOK("k1")}
	cfg := fastConfig()
	cfg.BreakerThreshold = 2
	c, err := New(cfg, []Group{{Name: "g0", Members: []Transport{flaky, ok}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Enough gathers to trip the flaky member's breaker (threshold 2);
	// the replica keeps every gather 200.
	for i := 0; i < 4; i++ {
		if code, _ := postGather(t, ts.URL, "q"); code != http.StatusOK {
			t.Fatalf("gather %d answered %d", i, code)
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
		Queries float64 `json:"queries"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}

	fam := obs.Find(fams, "ctpcoord_queries_total")
	if fam == nil {
		t.Fatal("ctpcoord_queries_total missing from /metrics")
	}
	if v, ok := fam.Value("ctpcoord_queries_total", nil); !ok || v != stats.Queries {
		t.Fatalf("/metrics queries %v (ok=%v) != /stats queries %v", v, ok, stats.Queries)
	}
	if fam := obs.Find(fams, "ctpcoord_gather_duration_seconds"); fam == nil {
		t.Fatal("ctpcoord_gather_duration_seconds missing from /metrics")
	}
	tfam := obs.Find(fams, "ctpcoord_breaker_transitions_total")
	if tfam == nil {
		t.Fatal("ctpcoord_breaker_transitions_total missing from /metrics")
	}
	v, okv := tfam.Value("ctpcoord_breaker_transitions_total",
		map[string]string{"from": "closed", "to": "open"})
	if !okv || v < 1 {
		t.Fatalf("closed→open breaker transition not counted (got %v, ok=%v)", v, okv)
	}
}

// TestGatherTracingDisabled: TraceOff keeps the response free of trace
// IDs and records nothing.
func TestGatherTracingDisabled(t *testing.T) {
	a := &tracingTransport{name: "a", fn: alwaysOK("k1")}
	cfg := fastConfig()
	cfg.TraceOff = true
	c, err := New(cfg, []Group{{Name: "g0", Members: []Transport{a}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	code, out := postGather(t, ts.URL, "q")
	if code != http.StatusOK {
		t.Fatalf("gather answered %d", code)
	}
	if raw, present := out["trace_id"]; present {
		t.Fatalf("tracing disabled yet response carries trace_id %s", raw)
	}
	if got := len(c.Tracer().Traces()); got != 0 {
		t.Fatalf("tracing disabled yet %d traces recorded", got)
	}
	if len(a.seenContexts()) != 0 {
		t.Fatal("tracing disabled yet a send carried a span context")
	}
}
