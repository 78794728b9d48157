package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/wire"
)

// These tests pin the serve-side half of the cluster contract: the
// draining refusal a coordinator routes around, and the canonical
// row_keys its gather-merge orders and dedups by.

// rawPost posts a query and returns the full *http.Response so headers
// (Retry-After) can be asserted alongside the body.
func rawPost(t *testing.T, url string, req wire.Request) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestDrainingRefusalCarriesRetryAfter: a draining server answers /query
// with 503 and a Retry-After derived from the configured drain grace —
// the earliest moment a replacement could plausibly answer — in both the
// header and the structured body, and /healthz mirrors the signal.
func TestDrainingRefusalCarriesRetryAfter(t *testing.T) {
	g := ctpquery.RandomGraph(200, 600, []string{"knows"}, 7)
	db, err := ctpquery.Open(g, &ctpquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{DefaultTimeout: 5 * time.Second, DrainGrace: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	s.SetDraining()

	resp := rawPost(t, ts.URL, wire.Request{Query: "SELECT ?w WHERE { CONNECT n1 n2 AS ?w MAX 4 LIMIT 1 . }"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /query answered %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "5" {
		t.Fatalf("Retry-After = %q, want \"5\" (the drain grace)", got)
	}
	var fail wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil {
		t.Fatal(err)
	}
	if fail.RetryAfterS != 5 {
		t.Fatalf("body retry_after_s = %d, want 5", fail.RetryAfterS)
	}
	if fail.Error == "" {
		t.Fatal("draining 503 carried no structured error")
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || hr.Header.Get("Retry-After") != "5" {
		t.Fatalf("/healthz while draining: %d Retry-After=%q, want 503 with \"5\"",
			hr.StatusCode, hr.Header.Get("Retry-After"))
	}
}

// TestDrainingRetryAfterRoundsUp: a sub-second drain grace still backs
// clients off a full second, and the zero grace answers Retry-After: 1 —
// "come back immediately" would invite a hammering loop.
func TestDrainingRetryAfterRoundsUp(t *testing.T) {
	for _, tc := range []struct {
		grace time.Duration
		want  string
	}{
		{0, "1"},
		{300 * time.Millisecond, "1"},
		{1500 * time.Millisecond, "2"},
	} {
		g := ctpquery.RandomGraph(50, 150, []string{"knows"}, 7)
		db, err := ctpquery.Open(g, &ctpquery.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(db, Config{DefaultTimeout: time.Second, DrainGrace: tc.grace})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler(false))
		s.SetDraining()
		resp := rawPost(t, ts.URL, wire.Request{Query: "SELECT ?w WHERE { CONNECT n1 n2 AS ?w MAX 4 LIMIT 1 . }"})
		if resp.Header.Get("Retry-After") != tc.want {
			t.Fatalf("grace %v: Retry-After = %q, want %q",
				tc.grace, resp.Header.Get("Retry-After"), tc.want)
		}
		ts.Close()
	}
}

// TestIncludeKeysEmitsCanonicalRowKeys: include_keys adds exactly one
// merge key per serialized row, and under the parallel kernel (how a
// cluster shard runs — only the exec collector orders canonically; the
// sequential kernel returns discovery order) the keys come back strictly
// ascending with no duplicates. The field stays absent when not asked
// for, so ordinary clients pay nothing.
func TestIncludeKeysEmitsCanonicalRowKeys(t *testing.T) {
	_, ts := newTestServer(t)
	const q = "SELECT ?w WHERE { CONNECT n3 n400 AS ?w MAX 6 LIMIT 500 . }"
	par := 2

	code, out, fail := postQuery(t, ts.URL, wire.Request{Query: q, IncludeKeys: true, Parallelism: &par})
	if code != http.StatusOK {
		t.Fatalf("query failed: %d %s", code, fail.Error)
	}
	if len(out.Rows) == 0 {
		t.Fatal("query returned no rows; the key assertions need a populated response")
	}
	if len(out.RowKeys) != len(out.Rows) {
		t.Fatalf("row_keys has %d entries for %d rows", len(out.RowKeys), len(out.Rows))
	}
	for i := 1; i < len(out.RowKeys); i++ {
		if out.RowKeys[i] <= out.RowKeys[i-1] {
			t.Fatalf("row_keys not strictly ascending at %d: %q then %q",
				i, out.RowKeys[i-1], out.RowKeys[i])
		}
	}

	code, out, fail = postQuery(t, ts.URL, wire.Request{Query: q})
	if code != http.StatusOK {
		t.Fatalf("query failed: %d %s", code, fail.Error)
	}
	if out.RowKeys != nil {
		t.Fatalf("row_keys leaked into a response that did not ask for them: %d entries", len(out.RowKeys))
	}
}
