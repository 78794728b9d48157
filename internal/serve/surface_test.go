package serve

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/cluster"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/wire_surface.golden from this run")

// TestWireSurfaceGolden pins the HTTP surface both servers speak: for a
// fixed request sequence, every JSON key path with its value kind on
// /query, /ingest, /healthz and /stats, and every /metrics HELP and TYPE
// line and sample name+label set, in order. Values (timings, counts,
// trace ids) are not pinned, so the file changes only when the wire
// does: a diff to testdata/wire_surface.golden is the list of wire
// changes a commit makes. Run with -update to accept one.
func TestWireSurfaceGolden(t *testing.T) {
	var sf surface
	serverSurface(t, &sf)
	for _, topo := range []string{"replicas", "partitions", "outage"} {
		coordSurface(t, &sf, topo)
	}
	got := sf.b.String()

	const path = "testdata/wire_surface.golden"
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("wire surface differs from %s (run with -update to accept):\n%s", path, lineDiff(string(want), got))
	}
}

// serverSurface drives a ctpserve with cache, admission, a live graph
// and the memory watchdog through queries, a shed, ingests and the
// read-only endpoints.
func serverSurface(t *testing.T, sf *surface) {
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42).
		LiveWithConfig(ctpquery.LiveConfig{CompactThreshold: -1})
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true, TrackAllocs: true}, ctpquery.WithCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     30 * time.Second,
		MaxRows:        1000,
		MaxParallelism: 16,
		Admission:      &admission.Config{MaxConcurrent: 2, CheapReserve: 1, QueueDepth: 1, MaxQueueWait: 30 * time.Second},
		// Far above any test heap: the watchdog reports but never trips.
		MemSoftBytes: 1 << 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Admitted analytical requests park here until the gate opens, so the
	// third one deterministically finds the slot held and the queue full.
	gate := make(chan struct{})
	s.testExecGate = func(c admission.Class) {
		if c == admission.Analytical {
			<-gate
		}
	}
	h := s.Handler(false)

	held := make(chan reply, 2)
	for i, wait := range []func() bool{
		func() bool { return s.ctrl.Stats().Analytical.Running == 1 },
		func() bool { return s.ctrl.Stats().Analytical.Queued == 1 },
	} {
		go func(i int) {
			held <- call(h, "POST", "/query", fmt.Sprintf(`{"query":"SELECT ?w WHERE { CONNECT qa%d qb qc qd AS ?w . }"}`, i))
		}(i)
		waitUntil(t, "analytical request to hold its slot or queue", wait)
	}
	sf.json("ctpserve POST /query shed", call(h, "POST", "/query", `{"query":"SELECT ?w WHERE { CONNECT qa9 qb qc qd AS ?w . }"}`))
	close(gate)
	first := <-held
	<-held
	sf.json("ctpserve POST /query analytical", first)

	for _, q := range []struct{ name, body string }{
		{"ctp", `{"query":"SELECT ?w WHERE { CONNECT n1 n2 AS ?w MAX 16 LIMIT 1 . }"}`},
		{"two clauses", `{"query":"SELECT ?v ?w WHERE { CONNECT n3 n4 AS ?v MAX 4 . CONNECT n5 n6 AS ?w MAX 4 . }"}`},
		{"parallel", `{"query":"SELECT ?w WHERE { CONNECT n7 n8 AS ?w MAX 5 . }","parallelism":4}`},
		{"bgp+ctp include_keys", `{"query":"SELECT ?x ?w WHERE { ?x knows ?y . CONNECT ?x n9 AS ?w MAX 3 LIMIT 5 . }","include_keys":true,"max_rows":2}`},
		{"omit_trees", `{"query":"SELECT ?w WHERE { CONNECT n10 n11 AS ?w MAX 5 LIMIT 2 . }","omit_trees":true,"algorithm":"GAM"}`},
		{"cache hit", `{"query":"SELECT ?w WHERE { CONNECT n1 n2 AS ?w MAX 16 LIMIT 1 . }"}`},
		{"parse error", `{"query":"SELECT ?w WHERE { CONNECT a b . }"}`},
		{"bad body", `{"query":`},
	} {
		sf.json("ctpserve POST /query "+q.name, call(h, "POST", "/query", q.body))
	}
	sf.json("ctpserve GET /query", call(h, "GET", "/query", ""))
	sf.json("ctpserve POST /ingest", call(h, "POST", "/ingest", "+n zed entrepreneur\n\n+e n1 funds zed\n"))
	sf.json("ctpserve POST /ingest mid-stream failure", call(h, "POST", "/ingest", "+e n1 funds n2\n\n+t nobody person\n"))
	sf.json("ctpserve GET /healthz", call(h, "GET", "/healthz", ""))
	sf.json("ctpserve GET /stats", call(h, "GET", "/stats", ""))
	sf.metrics("ctpserve GET /metrics", call(h, "GET", "/metrics", ""))
}

// TestCoordinatorForwardsRowsVerbatim: a one-group coordinator passes a
// shard's rows through byte for byte, even for a label JSON's default
// encoder would HTML-escape (to "AT&T <x>").
func TestCoordinatorForwardsRowsVerbatim(t *testing.T) {
	b := ctpquery.NewGraphBuilder()
	b.AddEdge(b.AddNode("AT&T <x>"), "knows", b.AddNode("bob"))
	db, err := ctpquery.Open(b.Build(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{DefaultTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	shard := s.Handler(false)
	c, err := cluster.New(cluster.Config{}, []cluster.Group{{Name: "g0",
		Members: []cluster.Transport{&cluster.LocalTransport{Name: "s0", Handler: shard}}}})
	if err != nil {
		t.Fatal(err)
	}
	rows := func(h http.Handler) string {
		t.Helper()
		r := call(h, "POST", "/query", `{"query":"SELECT ?x WHERE { ?x knows bob . }"}`)
		var body struct {
			Rows json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil || r.code != http.StatusOK {
			t.Fatalf("answered %d (%v): %s", r.code, err, r.body)
		}
		return string(body.Rows)
	}
	direct, gathered := rows(shard), rows(c.Handler())
	if !strings.Contains(direct, "AT&T <x>") {
		t.Fatalf("shard rows %s do not carry the raw label", direct)
	}
	if gathered != direct {
		t.Fatalf("coordinator rewrote the rows it forwards:\nshard       %s\ncoordinator %s", direct, gathered)
	}
}

// downTransport is a shard nothing answers.
type downTransport struct{}

func (downTransport) Target() string { return "down" }
func (downTransport) Send(context.Context, *cluster.Request) (*cluster.Response, error) {
	return nil, errors.New("connection refused")
}
func (downTransport) Probe(context.Context) (cluster.HealthReport, error) {
	return cluster.HealthReport{}, errors.New("connection refused")
}

// coordSurface drives a ctpcoord over in-process shards: one group of
// two replicas (pass-through), two partition groups (keyed merge), or a
// group nothing answers (503).
func coordSurface(t *testing.T, sf *surface, topo string) {
	shard := func(name string) cluster.Transport {
		g := ctpquery.RandomGraph(600, 1800, []string{"knows", "cites"}, 42)
		db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true, Parallelism: 2}, ctpquery.WithCache(16<<20))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(db, Config{DefaultTimeout: 10 * time.Second, MaxRows: 100})
		if err != nil {
			t.Fatal(err)
		}
		return &cluster.LocalTransport{Name: name, Handler: s.Handler(false)}
	}
	var groups []cluster.Group
	switch topo {
	case "replicas":
		groups = []cluster.Group{{Name: "g0", Members: []cluster.Transport{shard("r0"), shard("r1")}}}
	case "partitions":
		groups = []cluster.Group{
			{Name: "g0", Members: []cluster.Transport{shard("p0")}},
			{Name: "g1", Members: []cluster.Transport{shard("p1")}},
		}
	case "outage":
		groups = []cluster.Group{{Name: "g0", Members: []cluster.Transport{downTransport{}}}}
	}
	c, err := cluster.New(cluster.Config{DefaultTimeout: 10 * time.Second, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond}, groups)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	name := "ctpcoord " + topo + " "
	queries := []struct{ name, body string }{
		{"ctp", `{"query":"SELECT ?w WHERE { CONNECT n3 n50 AS ?w MAX 4 LIMIT 3 . }"}`},
		{"include_keys", `{"query":"SELECT ?x ?w WHERE { ?x knows ?y . CONNECT ?x n50 AS ?w MAX 3 LIMIT 5 . }","include_keys":true}`},
		{"parse error", `{"query":"SELECT ?w WHERE { CONNECT a b . }"}`},
		{"bad body", `{"query":`},
	}
	if topo == "outage" {
		queries = queries[:1]
	}
	for _, q := range queries {
		sf.json(name+"POST /query "+q.name, call(h, "POST", "/query", q.body))
	}
	sf.json(name+"GET /healthz", call(h, "GET", "/healthz", ""))
	sf.json(name+"GET /stats", call(h, "GET", "/stats", ""))
	sf.metrics(name+"GET /metrics", call(h, "GET", "/metrics", ""))
}

// reply is one answered request.
type reply struct {
	code int
	body []byte
}

// call runs one request through h in-process.
func call(h http.Handler, method, path, body string) reply {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return reply{rec.Code, rec.Body.Bytes()}
}

// surface accumulates the rendered golden text.
type surface struct{ b strings.Builder }

// json records a JSON body as its sorted "path kind" lines.
func (sf *surface) json(title string, r reply) {
	fmt.Fprintf(&sf.b, "== %s -> %d\n", title, r.code)
	var v any
	if err := json.Unmarshal(r.body, &v); err != nil {
		fmt.Fprintf(&sf.b, "not JSON: %v\n", err)
		return
	}
	set := map[string]bool{}
	jsonShape("$", v, set)
	lines := make([]string, 0, len(set))
	for l := range set {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	for _, l := range lines {
		sf.b.WriteString(l + "\n")
	}
}

// jsonShape adds one "path kind" line per value under v; array elements
// share the path "[]".
func jsonShape(path string, v any, set map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		set[path+" object"] = true
		for k, e := range x {
			jsonShape(path+"."+k, e, set)
		}
	case []any:
		set[path+" array"] = true
		for _, e := range x {
			jsonShape(path+"[]", e, set)
		}
	case string:
		set[path+" string"] = true
	case float64:
		set[path+" number"] = true
	case bool:
		set[path+" bool"] = true
	default:
		set[path+" null"] = true
	}
}

// metrics records an exposition's HELP and TYPE lines verbatim and each
// sample without its value, in order.
func (sf *surface) metrics(title string, r reply) {
	fmt.Fprintf(&sf.b, "== %s -> %d\n", title, r.code)
	for _, l := range strings.Split(strings.TrimSpace(string(r.body)), "\n") {
		if !strings.HasPrefix(l, "#") {
			l = l[:strings.LastIndexByte(l, ' ')]
		}
		sf.b.WriteString(l + "\n")
	}
}

// lineDiff lists the lines only one side has: "-" for want's, "+" for
// got's.
func lineDiff(want, got string) string {
	surplus := map[string]int{}
	for _, l := range strings.Split(got, "\n") {
		surplus[l]++
	}
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if surplus[l] > 0 {
			surplus[l]--
			continue
		}
		fmt.Fprintf(&b, "- %s\n", l)
	}
	for _, l := range strings.Split(got, "\n") {
		if surplus[l] > 0 {
			surplus[l]--
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	if b.Len() == 0 {
		return "same lines, different order"
	}
	return b.String()
}
