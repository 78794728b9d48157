package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/fault"
	"ctpquery/internal/wire"
)

// newLiveTestServer serves a live (mutable) copy of the test graph, the
// way `ctpserve -live` runs.
func newLiveTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42).Live()
	db, err := ctpquery.Open(g, &ctpquery.Options{}, ctpquery.WithCache(16<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{DefaultTimeout: 10 * time.Second, MaxRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	t.Cleanup(ts.Close)
	return s, ts
}

func postIngest(t *testing.T, url, body string) (int, wire.Ingest, wire.Error) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out wire.Ingest
	var fail wire.Error
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding ingest response: %v", err)
		}
	} else {
		if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil {
			t.Fatalf("decoding ingest error: %v", err)
		}
	}
	return resp.StatusCode, out, fail
}

// TestIngestEndToEnd drives the full write path over HTTP: two batches
// land as two epochs, queries see the new data immediately, and the
// store surfaces on /healthz, /stats, and /metrics.
func TestIngestEndToEnd(t *testing.T) {
	s, ts := newLiveTestServer(t)

	// Warm the cache at epoch 0 so the post-ingest query proves
	// fingerprint rotation (a stale hit would answer without "zed").
	const q = `SELECT ?x WHERE { ?x funds zed . }`
	code, out, fail := postQuery(t, ts.URL, wire.Request{Query: q})
	if code != http.StatusOK {
		t.Fatalf("pre-ingest query: %d: %s", code, fail.Error)
	}
	if out.RowCount != 0 {
		t.Fatalf("pre-ingest query found %d rows, want 0", out.RowCount)
	}

	stream := "+n zed entrepreneur\n" + // batch 1: the node
		"\n" +
		"+e n1 funds zed\n+e n2 funds zed\n" // batch 2: two edges
	code, ing, fail := postIngest(t, ts.URL, stream)
	if code != http.StatusOK {
		t.Fatalf("ingest: %d: %s", code, fail.Error)
	}
	if ing.Epoch != 2 || ing.Batches != 2 || ing.NodesAdded != 1 || ing.EdgesAdded != 2 {
		t.Fatalf("ingest response = %+v", ing)
	}
	if len(ing.Fingerprint) != 16 {
		t.Fatalf("fingerprint %q is not a 16-hex-digit string", ing.Fingerprint)
	}
	if ing.Store == nil || ing.Store["epoch"] == nil {
		t.Fatalf("ingest response carries no store stats: %+v", ing.Store)
	}

	code, out, fail = postQuery(t, ts.URL, wire.Request{Query: q})
	if code != http.StatusOK {
		t.Fatalf("post-ingest query: %d: %s", code, fail.Error)
	}
	if out.RowCount != 2 {
		t.Fatalf("post-ingest query found %d rows, want 2 (stale cache hit?)", out.RowCount)
	}

	// /healthz reports the live epoch.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["live"] != true || health["epoch"] != float64(2) {
		t.Fatalf("/healthz = %v, want live=true epoch=2", health)
	}

	// /stats carries the store and ingest sections.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	store, ok := stats["store"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no store section: %v", stats)
	}
	if store["epoch"] != float64(2) || store["delta_edges"] != float64(2) {
		t.Fatalf("/stats store = %v", store)
	}
	// Ops = 1 node + 1 type (entrepreneur) + 2 edges.
	ingest, ok := stats["ingest"].(map[string]any)
	if !ok || ingest["batches"] != float64(2) || ingest["ops"] != float64(4) {
		t.Fatalf("/stats ingest = %v", ingest)
	}

	// /metrics exposes the ingest counters and store gauges.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rawBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	raw := string(rawBytes)
	for _, want := range []string{
		"ctp_ingest_batches_total 2",
		"ctp_ingest_ops_total 4",
		"ctp_store_epoch 2",
		"ctp_store_delta_edges 2",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	_ = s
}

// TestIngestFrozenGraph: a server over a frozen graph answers 409 and
// counts the refusal.
func TestIngestFrozenGraph(t *testing.T) {
	s, ts := newTestServer(t)
	code, _, fail := postIngest(t, ts.URL, "+e n1 knows n2\n")
	if code != http.StatusConflict {
		t.Fatalf("ingest into frozen graph: %d, want 409", code)
	}
	if !strings.Contains(fail.Error, "frozen") {
		t.Fatalf("409 body %q does not explain the graph is frozen", fail.Error)
	}
	if s.ingestFailures.Load() != 1 {
		t.Fatalf("ingestFailures = %d, want 1", s.ingestFailures.Load())
	}
}

// TestIngestValidation: method, empty-body, and parse errors answer
// 4xx; a failing batch reports how many earlier batches were applied.
func TestIngestValidation(t *testing.T) {
	s, ts := newLiveTestServer(t)

	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d, want 405", resp.StatusCode)
	}

	if code, _, _ := postIngest(t, ts.URL, ""); code != http.StatusBadRequest {
		t.Fatalf("empty body: %d, want 400", code)
	}
	if code, _, fail := postIngest(t, ts.URL, "+x what\n"); code != http.StatusBadRequest {
		t.Fatalf("malformed op: %d, want 400", code)
	} else if !strings.Contains(fail.Error, "line 1") {
		t.Fatalf("parse error %q does not name the line", fail.Error)
	}

	// Batch 1 is fine, batch 2 references an ambiguous/invalid op: the
	// error names the failing batch and epoch stays at 1.
	stream := "+e n1 funds n2\n\n-e nope knows missing\n+e n1 knows\n"
	code, _, fail := postIngest(t, ts.URL, stream)
	if code != http.StatusBadRequest {
		t.Fatalf("bad second batch: %d, want 400", code)
	}
	if !strings.Contains(fail.Error, "line") {
		t.Fatalf("error %q does not locate the problem", fail.Error)
	}
	if got := s.base.Graph().Epoch(); got != 0 {
		t.Fatalf("parse failure applied batches: epoch %d, want 0", got)
	}
}

// TestIngestPartialFailure: when a later batch fails validation at apply
// time, earlier batches stay applied (each is its own epoch) and the
// error says so.
func TestIngestPartialFailure(t *testing.T) {
	s, ts := newLiveTestServer(t)

	// Batch 1 is valid; batch 2 parses fine but fails validation at apply
	// time (AddType on a node that does not exist).
	code, _, fail := postIngest(t, ts.URL, "+e n1 funds n2\n\n+t nobody person\n")
	if code != http.StatusBadRequest {
		t.Fatalf("unknown AddType node: %d, want 400", code)
	}
	if !strings.Contains(fail.Error, "batch 2 of 2") || !strings.Contains(fail.Error, "previous batches applied") {
		t.Fatalf("error %q does not report partial application", fail.Error)
	}
	if got := s.base.Graph().Epoch(); got != 1 {
		t.Fatalf("epoch = %d, want 1 (first batch applied, second rejected)", got)
	}

	// The applied batch counts, on /stats and on /metrics.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ingest, _ := stats["ingest"].(map[string]any); ingest["batches"] != float64(1) || ingest["ops"] != float64(1) {
		t.Fatalf("/stats ingest = %v, want 1 batch and 1 op", stats["ingest"])
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ctp_ingest_batches_total 1", "ctp_ingest_ops_total 1"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestIngestChaosFault arms the serve.ingest probe: the request answers
// a structured 500, the epoch does not move, and the failure is
// counted; disarmed, the same body applies cleanly.
func TestIngestChaosFault(t *testing.T) {
	defer fault.Reset()
	s, ts := newLiveTestServer(t)

	if err := fault.Arm("serve.ingest", fault.Fault{Kind: fault.Error}); err != nil {
		t.Fatal(err)
	}
	code, _, fail := postIngest(t, ts.URL, "+e n1 funds n2\n")
	if code != http.StatusInternalServerError {
		t.Fatalf("armed ingest: %d, want 500", code)
	}
	if fail.Error == "" {
		t.Fatal("500 carried no structured error body")
	}
	if got := s.base.Graph().Epoch(); got != 0 {
		t.Fatalf("failed ingest moved the epoch to %d", got)
	}
	if s.ingestFailures.Load() != 1 {
		t.Fatalf("ingestFailures = %d, want 1", s.ingestFailures.Load())
	}

	fault.Reset()
	if code, ing, fail := postIngest(t, ts.URL, "+e n1 funds n2\n"); code != http.StatusOK {
		t.Fatalf("disarmed ingest: %d: %s", code, fail.Error)
	} else if ing.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", ing.Epoch)
	}
}
