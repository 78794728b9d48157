package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/wire"
)

// hitServer builds a server the way ctpserve runs behind a benchmark:
// cache, admission with two slots, row cap, tracing on. withAdmission
// false leaves admission off, so a hit is served without the bypass.
func hitServer(tb testing.TB, g *ctpquery.Graph, withAdmission bool) (*Server, http.Handler) {
	tb.Helper()
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true, TrackAllocs: true}, ctpquery.WithCache(64<<20))
	if err != nil {
		tb.Fatal(err)
	}
	cfg := Config{DefaultTimeout: 10 * time.Second, MaxTimeout: time.Minute, MaxRows: 1000, MaxParallelism: 16}
	if withAdmission {
		cfg.Admission = &admission.Config{MaxConcurrent: 2, CheapReserve: 1, QueueDepth: 64, MaxQueueWait: 2 * time.Second}
	}
	s, err := New(db, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s, s.Handler(false)
}

func hitGraph() *ctpquery.Graph {
	return ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
}

// hitBody is a warm request of the kind serve-hot sends: a CONNECT query
// whose text is not the canonical rendering, with row keys.
const hitBody = `{"query":"SELECT ?w WHERE { CONNECT n3 n40 AS ?w MAX 5 LIMIT 20 . }","include_keys":true}`

// serveOnce runs one request through h, request construction included.
func serveOnce(h http.Handler, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	return rec
}

// BenchmarkQueryHit times one /query request through the handler: a hit
// on a warm entry (the stored rendering written around the request's
// fields), and a miss that searches, renders and fills the entry.
func BenchmarkQueryHit(b *testing.B) {
	g := hitGraph()
	b.Run("hit", func(b *testing.B) {
		_, h := hitServer(b, g, true)
		for i := 0; i < 2; i++ { // the miss, then the first hit
			if rec := serveOnce(h, hitBody); rec.Code != http.StatusOK {
				b.Fatalf("warm-up answered %d: %s", rec.Code, rec.Body)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOnce(h, hitBody)
		}
	})
	b.Run("miss", func(b *testing.B) {
		s, h := hitServer(b, g, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.base.ShedCache(0)
			serveOnce(h, hitBody)
		}
	})
}

// A warm hit allocates what the request and its trace need: the request
// and recorder, decoding the body, the root span and its two children,
// the trace record — about 40. It does not parse the query, arm a
// deadline or encode the answer: when every hit re-rendered its 20 rows,
// this hit made 436.
func TestWarmHitAllocations(t *testing.T) {
	_, h := hitServer(t, hitGraph(), true)
	for i := 0; i < 2; i++ {
		if rec := serveOnce(h, hitBody); rec.Code != http.StatusOK {
			t.Fatalf("warm-up answered %d: %s", rec.Code, rec.Body)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if rec := serveOnce(h, hitBody); rec.Code != http.StatusOK {
			t.Fatalf("hit answered %d", rec.Code)
		}
	})
	t.Logf("%.0f allocations per warm hit, request construction included", allocs)
	if allocs > 60 {
		t.Fatalf("a warm hit made %.0f allocations, want <= 60", allocs)
	}
}

// perRequest cuts what an answer carries per request out of body:
// timings_ms.total's value and the cache, admission and trace_id fields
// after the search report. What is left is the result's rendering.
func perRequest(t *testing.T, body []byte) string {
	t.Helper()
	i := bytes.LastIndex(body, []byte(`"total":`))
	if i < 0 {
		t.Fatalf("answer has no timings_ms.total: %s", body)
	}
	i += len(`"total":`)
	rest := body[i+bytes.IndexByte(body[i:], '}'):]
	for _, f := range []string{`,"cache":`, `,"admission":`, `,"trace_id":`} {
		if k := bytes.Index(rest, []byte(f)); k >= 0 {
			rest = rest[:k]
		}
	}
	return string(body[:i]) + string(rest)
}

// canonical is body decoded into the wire type and written back by
// wire.WriteJSON: the bytes encoding/json makes of the same answer.
func canonical(t *testing.T, body []byte) []byte {
	t.Helper()
	var resp wire.Response[wire.Row]
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("answer is not a wire.Response: %v\n%s", err, body)
	}
	rec := httptest.NewRecorder()
	wire.WriteJSON(rec, http.StatusOK, resp)
	return rec.Body.Bytes()
}

// TestHitBytesEqualMissBytes: a hit answers with the bytes of the miss
// that filled its entry, but for the fields that are the request's own
// (timings_ms.total, cache, admission, trace_id) — on the first hit,
// which renders, and on the next, which writes the stored rendering —
// for every request shape of the wire surface and a label JSON would
// HTML-escape, on both hit routes: the admission bypass, and a server
// without admission. Every answer is also byte for byte what
// encoding/json writes for its wire.Response.
func TestHitBytesEqualMissBytes(t *testing.T) {
	b := ctpquery.NewGraphBuilder()
	att, bob, carol := b.AddNode("AT&T <x>"), b.AddNode("bob"), b.AddNode("carol")
	b.AddEdge(att, "knows", bob)
	b.AddEdge(carol, "knows", att)
	escaped := b.Build()
	shapes := []struct {
		name string
		g    *ctpquery.Graph
		body string
	}{
		{"ctp", hitGraph(), `{"query":"SELECT ?w WHERE { CONNECT n1 n2 AS ?w MAX 16 LIMIT 1 . }"}`},
		{"two clauses", hitGraph(), `{"query":"SELECT ?v ?w WHERE { CONNECT n3 n4 AS ?v MAX 4 . CONNECT n5 n6 AS ?w MAX 4 . }"}`},
		{"bgp+ctp include_keys", hitGraph(), `{"query":"SELECT ?x ?w WHERE { ?x knows ?y . CONNECT ?x n9 AS ?w MAX 3 LIMIT 5 . }","include_keys":true,"max_rows":2}`},
		{"omit_trees", hitGraph(), `{"query":"SELECT ?w WHERE { CONNECT n10 n11 AS ?w MAX 5 LIMIT 2 . }","omit_trees":true,"algorithm":"GAM"}`},
		{"escaped label", escaped, `{"query":"SELECT ?x ?w WHERE { ?x knows bob . CONNECT ?x carol AS ?w MAX 3 . }"}`},
	}
	for _, route := range []struct {
		name          string
		withAdmission bool
	}{{"admission bypass", true}, {"no admission", false}} {
		for _, sh := range shapes {
			t.Run(route.name+"/"+sh.name, func(t *testing.T) {
				_, h := hitServer(t, sh.g, route.withAdmission)
				var first string
				for i, wantHit := range []bool{false, true, true} {
					rec := serveOnce(h, sh.body)
					if rec.Code != http.StatusOK {
						t.Fatalf("request %d answered %d: %s", i, rec.Code, rec.Body)
					}
					body := rec.Body.Bytes()
					if got := canonical(t, body); !bytes.Equal(got, body) {
						t.Fatalf("request %d is not encoding/json's bytes:\ngot  %s\nwant %s", i, body, got)
					}
					var out wire.Response[wire.Row]
					_ = json.Unmarshal(body, &out)
					if out.Cache == nil || out.Cache.Hit != wantHit {
						t.Fatalf("request %d cache report %+v, want hit=%t", i, out.Cache, wantHit)
					}
					if route.withAdmission != (out.Admission != nil) || (out.Admission != nil && out.Admission.CacheBypass != wantHit) {
						t.Fatalf("request %d admission report %+v", i, out.Admission)
					}
					if sh.name == "escaped label" && !bytes.Contains(body, []byte("AT&T <x>")) {
						t.Fatalf("request %d escaped the label: %s", i, body)
					}
					if i == 0 {
						first = perRequest(t, body)
					} else if got := perRequest(t, body); got != first {
						t.Fatalf("hit %d differs from the miss:\nmiss %s\nhit  %s", i, first, got)
					}
				}
			})
		}
	}
}

// appendFloat writes a float64 as encoding/json does.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.5, 0.061, 1234.5678, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10,
		5e-324, 1e20, 1e21, 1.5e22, math.MaxFloat64, 0.1 + 0.2, 1.0 / 3} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %s, encoding/json writes %s", f, got, want)
		}
	}
}

// Concurrent first hits on one entry, each asking for another variant
// (row cap, omit_trees, include_keys), get the rendering their variant's
// miss would: run under -race, they share the entry's stored renderings.
func TestConcurrentHitsMixedVariants(t *testing.T) {
	const query = `"query":"SELECT ?w WHERE { CONNECT n3 n40 AS ?w MAX 5 LIMIT 20 . }"`
	variants := []string{
		`{` + query + `}`,
		`{` + query + `,"max_rows":3}`,
		`{` + query + `,"omit_trees":true}`,
		`{` + query + `,"include_keys":true}`,
		`{` + query + `,"include_keys":true,"omit_trees":true,"max_rows":1}`,
	}
	s, h := hitServer(t, hitGraph(), true)
	// The miss renders without storing anything; its timings are the
	// entry's, so every later answer of a variant matches its first.
	rec := serveOnce(h, variants[0])
	if rec.Code != http.StatusOK {
		t.Fatalf("miss answered %d: %s", rec.Code, rec.Body)
	}
	var mu sync.Mutex
	want := map[int]string{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				vi := (g + i) % len(variants)
				rec := serveOnce(h, variants[vi])
				if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cache":{"hit":true`)) {
					t.Errorf("variant %d answered %d: %s", vi, rec.Code, rec.Body)
					return
				}
				got := perRequest(t, rec.Body.Bytes())
				mu.Lock()
				if w, ok := want[vi]; !ok {
					want[vi] = got
				} else if w != got {
					t.Errorf("variant %d answered two renderings:\n%s\n%s", vi, w, got)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if len(want) == len(variants) && want[1] == want[0] {
		t.Error("the row cap did not change the rendering")
	}
	if st, _ := s.base.CacheStats(); st.Bytes > st.MaxBytes || st.Entries != 1 {
		t.Fatalf("cache after concurrent hits: %+v", st)
	}
}

// A first hit's rendering and alias are charged to its entry: when they
// do not fit, the LRU makes room, so the cache stays within its budget;
// until then a one-shot entry costs exactly its admission charge; and
// shedding the cache frees the renderings and the aliases with the
// entries.
func TestHitRenderingStaysInBudget(t *testing.T) {
	texts := []string{
		"SELECT ?w WHERE { CONNECT n3 n40 AS ?w MAX 5 LIMIT 20 . }",
		"SELECT ?w WHERE { CONNECT n4 n41 AS ?w MAX 5 LIMIT 20 . }",
		"SELECT ?w WHERE { CONNECT n5 n42 AS ?w MAX 5 LIMIT 20 . }",
	}
	body := func(text string) string { return `{"query":"` + text + `","include_keys":true}` }
	g := hitGraph()

	// What each entry is charged at admission, learned on a large cache.
	probe, ph := hitServer(t, g, true)
	var admitted int64
	for _, text := range texts {
		if rec := serveOnce(ph, body(text)); rec.Code != http.StatusOK {
			t.Fatalf("miss answered %d: %s", rec.Code, rec.Body)
		}
	}
	st, _ := probe.base.CacheStats()
	admitted = st.Bytes
	if st.Entries != len(texts) {
		t.Fatalf("probe cache: %+v", st)
	}
	// The first hit on texts[0] charges its rendering and alias.
	answer := serveOnce(ph, body(texts[0])).Body.Len()
	st, _ = probe.base.CacheStats()
	derived := st.Bytes - admitted
	if derived < int64(answer)-100 {
		t.Fatalf("a first hit charged %d bytes, want its rendering (~%d) and alias", derived, answer)
	}
	serveOnce(ph, body(texts[0]))
	if st2, _ := probe.base.CacheStats(); st2.Bytes != st.Bytes {
		t.Fatalf("a second hit charged %d more bytes", st2.Bytes-st.Bytes)
	}

	// A budget that holds the three entries with less room to spare than
	// the first hit needs.
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true, TrackAllocs: true}, ctpquery.WithCache(admitted+derived/2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{DefaultTimeout: 10 * time.Second, MaxRows: 1000,
		Admission: &admission.Config{MaxConcurrent: 2, CheapReserve: 1, QueueDepth: 64, MaxQueueWait: 2 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler(false)
	for _, text := range texts {
		serveOnce(h, body(text))
	}
	if st, _ := db.CacheStats(); st.Bytes != admitted || st.Evictions != 0 {
		t.Fatalf("one-shot entries: %+v, want %d bytes and no evictions", st, admitted)
	}
	rec := serveOnce(h, body(texts[0]))
	if !bytes.Contains(rec.Body.Bytes(), []byte(`"cache_bypass":true`)) {
		t.Fatalf("first hit did not bypass admission: %s", rec.Body)
	}
	st, _ = db.CacheStats()
	if st.Bytes > st.MaxBytes || st.Evictions != 1 || st.Entries != len(texts)-1 {
		t.Fatalf("after the first hit rendered: %+v, want one eviction and bytes within the budget", st)
	}
	if _, ok := db.PeekText(texts[0]); !ok {
		t.Fatal("the hit entry was evicted, or its text has no alias")
	}

	if freed := db.ShedCache(0); freed != st.Bytes {
		t.Fatalf("shedding freed %d bytes, cache held %d", freed, st.Bytes)
	}
	if st, _ := db.CacheStats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("after shedding: %+v", st)
	}
	if _, ok := db.PeekText(texts[0]); ok {
		t.Fatal("an alias outlived its entry")
	}
}
