package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/wire"
)

// The admission e2e suite runs the production serving path against a
// saturated server, deterministically: the analytical queries connect
// node labels that do not exist in the graph, so they classify
// analytical by shape (4 members, unbounded MAX) but execute in
// microseconds on empty seed sets — and the testExecGate hook holds
// admitted analytical requests inside their execution slots until the
// test releases them. No sleeps decide outcomes; every state the tests
// assert on is reached by waiting on controller counters.

// Distinct analytical query texts (distinct, so the result cache cannot
// coalesce them).
func analyticalQuery(i byte) string {
	return "SELECT ?w WHERE { CONNECT qa" + string('0'+i) + " qb qc qd AS ?w . }"
}

const cheapQuery = "SELECT ?w WHERE { CONNECT qz1 qz2 AS ?w MAX 2 LIMIT 1 . }"

// newAdmissionServer builds a server with 2 execution slots, 1 reserved
// for cheap requests, an analytical queue of depth 1, and a gate that
// parks admitted analytical requests until released.
func newAdmissionServer(t *testing.T, maxQueueWait time.Duration) (*Server, *httptest.Server, func()) {
	t.Helper()
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true}, ctpquery.WithCache(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     30 * time.Second,
		MaxRows:        1000,
		MaxParallelism: 16,
		Admission: &admission.Config{
			MaxConcurrent: 2,
			CheapReserve:  1,
			QueueDepth:    1,
			MaxQueueWait:  maxQueueWait,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gateCh := make(chan struct{})
	s.testExecGate = func(c admission.Class) {
		if c == admission.Analytical {
			<-gateCh
		}
	}
	var once sync.Once
	release := func() { once.Do(func() { close(gateCh) }) }
	t.Cleanup(release)
	ts := httptest.NewServer(s.Handler(false))
	t.Cleanup(ts.Close)
	return s, ts, release
}

// waitUntil polls cond until true or the deadline; failing the test on
// timeout with msg.
func waitUntil(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// postRaw posts a query and returns the full HTTP response with decoded
// body, keeping headers (Retry-After) visible.
func postRaw(t *testing.T, url string, req wire.Request) (code int, header http.Header, out wire.Response[wire.Row], fail wire.Error) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	} else if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil {
		t.Fatalf("decoding error response: %v", err)
	}
	return resp.StatusCode, resp.Header, out, fail
}

// The tentpole guarantee end to end: with the single analytical slot
// held and the analytical queue full, (a) a further analytical request
// sheds immediately with 429 + Retry-After, (b) a cheap request is
// admitted through the reserve and completes within its deadline, and
// (c) the queued analytical request completes once the slot frees.
func TestAdmissionSaturationCheapSurvives(t *testing.T) {
	s, ts, release := newAdmissionServer(t, 30*time.Second)

	type reply struct {
		code int
		out  wire.Response[wire.Row]
	}
	a1 := make(chan reply, 1)
	a2 := make(chan reply, 1)
	go func() {
		code, _, out, _ := postRaw(t, ts.URL, wire.Request{Query: analyticalQuery(1), TimeoutMS: 20000})
		a1 <- reply{code, out}
	}()
	waitUntil(t, "first analytical to occupy its slot", func() bool {
		return s.ctrl.Stats().Analytical.Running == 1
	})
	go func() {
		code, _, out, _ := postRaw(t, ts.URL, wire.Request{Query: analyticalQuery(2), TimeoutMS: 20000})
		a2 <- reply{code, out}
	}()
	waitUntil(t, "second analytical to queue", func() bool {
		return s.ctrl.Stats().Analytical.Queued == 1
	})

	// (a) The queue is full: the third analytical request sheds NOW, with
	// the backoff hint in both the header and the body.
	code, header, _, fail := postRaw(t, ts.URL, wire.Request{Query: analyticalQuery(3), TimeoutMS: 20000})
	if code != http.StatusTooManyRequests {
		t.Fatalf("third analytical: status %d, want 429 (%+v)", code, fail)
	}
	if header.Get("Retry-After") == "" || fail.RetryAfterS < 1 {
		t.Fatalf("shed response lacks Retry-After: header %q, body %+v", header.Get("Retry-After"), fail)
	}

	// (b) A cheap request completes through the reserve while the server
	// is saturated with analytical work — the SLO the two-class split
	// exists to protect. The 5s bound is generous; without the reserve it
	// would wait the full 30s MaxQueueWait behind the queued analytical.
	start := time.Now()
	code, _, cheap, fail := postRaw(t, ts.URL, wire.Request{Query: cheapQuery, TimeoutMS: 5000})
	if code != http.StatusOK {
		t.Fatalf("cheap under saturation: status %d: %+v", code, fail)
	}
	if lat := time.Since(start); lat > 5*time.Second {
		t.Fatalf("cheap request took %v under saturation", lat)
	}
	if cheap.Admission == nil || cheap.Admission.Class != "cheap" {
		t.Fatalf("cheap request admission report: %+v", cheap.Admission)
	}

	// (c) Free the gate: the running and the queued analytical both
	// complete normally.
	release()
	for _, ch := range []chan reply{a1, a2} {
		r := <-ch
		if r.code != http.StatusOK {
			t.Fatalf("gated analytical: status %d", r.code)
		}
		if r.out.Admission == nil || r.out.Admission.Class != "analytical" {
			t.Fatalf("analytical admission report: %+v", r.out.Admission)
		}
		if r.out.Admission.EstimatedUnits <= 0 || r.out.Admission.ActualUnits < 1 {
			t.Fatalf("admission cost report: %+v", r.out.Admission)
		}
	}

	st := s.ctrl.Stats()
	if st.Analytical.ShedFull != 1 || st.Analytical.Admitted != 2 || st.Cheap.Admitted != 1 {
		t.Fatalf("controller stats: %+v", st)
	}
	if st.Cheap.Shed() != 0 {
		t.Fatalf("cheap requests were shed: %+v", st.Cheap)
	}

	// The /stats admission section reports the same story to operators.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Sheds     int64 `json:"sheds"`
		Failures  int64 `json:"failures"`
		Admission *struct {
			Analytical struct {
				Admitted int64 `json:"admitted"`
				ShedFull int64 `json:"shed_full"`
				Shed     int64 `json:"shed"`
			} `json:"analytical"`
			Estimator struct {
				Observations int64 `json:"observations"`
			} `json:"estimator"`
		} `json:"admission"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Admission == nil {
		t.Fatal("/stats has no admission section on an admission-enabled server")
	}
	if stats.Admission.Analytical.ShedFull != 1 || stats.Admission.Analytical.Shed != 1 {
		t.Fatalf("/stats admission: %+v", *stats.Admission)
	}
	if stats.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", stats.Sheds)
	}
	if stats.Failures != 0 {
		t.Fatalf("failures = %d; sheds must not count as failures", stats.Failures)
	}
	if stats.Admission.Estimator.Observations < 3 {
		t.Fatalf("estimator observations = %d, want one per executed search", stats.Admission.Estimator.Observations)
	}
}

// A request whose deadline expires while queued is shed with 429 and
// counted shed_expired — deadline-aware queueing, not blind FIFO.
func TestAdmissionQueuedDeadlineExpires(t *testing.T) {
	s, ts, release := newAdmissionServer(t, 60*time.Second)
	done := make(chan int, 1)
	go func() {
		code, _, _, _ := postRaw(t, ts.URL, wire.Request{Query: analyticalQuery(1), TimeoutMS: 20000})
		done <- code
	}()
	waitUntil(t, "first analytical to occupy its slot", func() bool {
		return s.ctrl.Stats().Analytical.Running == 1
	})
	// 80ms deadline, 60s MaxQueueWait: only the request's own deadline
	// can end the wait.
	code, header, _, _ := postRaw(t, ts.URL, wire.Request{Query: analyticalQuery(2), TimeoutMS: 80})
	if code != http.StatusTooManyRequests {
		t.Fatalf("expired-in-queue request: status %d, want 429", code)
	}
	if header.Get("Retry-After") == "" {
		t.Fatal("expired-in-queue response lacks Retry-After")
	}
	if st := s.ctrl.Stats(); st.Analytical.ShedExpired != 1 {
		t.Fatalf("controller stats: %+v", st)
	}
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("gated analytical: status %d", code)
	}
}

// A queued request that outlives the controller's MaxQueueWait is shed
// even when its own deadline is generous.
func TestAdmissionMaxQueueWaitExpires(t *testing.T) {
	s, ts, release := newAdmissionServer(t, 50*time.Millisecond)
	done := make(chan int, 1)
	go func() {
		code, _, _, _ := postRaw(t, ts.URL, wire.Request{Query: analyticalQuery(1), TimeoutMS: 20000})
		done <- code
	}()
	waitUntil(t, "first analytical to occupy its slot", func() bool {
		return s.ctrl.Stats().Analytical.Running == 1
	})
	code, _, _, _ := postRaw(t, ts.URL, wire.Request{Query: analyticalQuery(2), TimeoutMS: 20000})
	if code != http.StatusTooManyRequests {
		t.Fatalf("max-queue-wait request: status %d, want 429", code)
	}
	if st := s.ctrl.Stats(); st.Analytical.ShedExpired != 1 {
		t.Fatalf("controller stats: %+v", st)
	}
	release()
	<-done
}

// Shed and queued-then-expired requests never executed, so they must
// leave no trace anywhere downstream: not in the result cache (the next
// identical request is a miss that really runs), not in the /stats
// search-effort aggregates, and not in the estimator's observations.
func TestShedRequestsPolluteNothing(t *testing.T) {
	s, ts, release := newAdmissionServer(t, 30*time.Second)

	a1 := make(chan int, 1)
	a2 := make(chan int, 1)
	go func() {
		code, _, _, _ := postRaw(t, ts.URL, wire.Request{Query: analyticalQuery(1), TimeoutMS: 20000})
		a1 <- code
	}()
	waitUntil(t, "first analytical to occupy its slot", func() bool {
		return s.ctrl.Stats().Analytical.Running == 1
	})
	go func() {
		code, _, _, _ := postRaw(t, ts.URL, wire.Request{Query: analyticalQuery(2), TimeoutMS: 20000})
		a2 <- code
	}()
	waitUntil(t, "second analytical to queue", func() bool {
		return s.ctrl.Stats().Analytical.Queued == 1
	})

	shedQ := analyticalQuery(3)
	code, _, _, _ := postRaw(t, ts.URL, wire.Request{Query: shedQ, TimeoutMS: 20000})
	if code != http.StatusTooManyRequests {
		t.Fatalf("shed target: status %d, want 429", code)
	}

	// Nothing has executed yet (the admitted analyticals are parked at
	// the gate), so every aggregate downstream of execution must be zero:
	// a shed that contributed to any of them would show here.
	if got := s.searchTotals().TreesGenerated; got != 0 {
		t.Fatalf("search effort aggregated before any execution: %d trees", got)
	}
	if cs, _ := s.base.CacheStats(); cs.Misses != 0 || cs.Entries != 0 {
		t.Fatalf("shed request reached the cache: %+v", cs)
	}
	if est := s.est.Stats(); est.Observations != 0 {
		t.Fatalf("shed request fed the estimator: %+v", est)
	}

	release()
	if c := <-a1; c != http.StatusOK {
		t.Fatalf("first analytical: status %d", c)
	}
	if c := <-a2; c != http.StatusOK {
		t.Fatalf("second analytical: status %d", c)
	}

	// The shed query re-issued must be a genuine miss that executes — a
	// polluted cache would serve it a hit for a run that never happened.
	code, _, out, fail := postRaw(t, ts.URL, wire.Request{Query: shedQ, TimeoutMS: 20000})
	if code != http.StatusOK {
		t.Fatalf("re-issued shed query: status %d: %+v", code, fail)
	}
	if out.Cache == nil || out.Cache.Hit || out.Cache.Coalesced {
		t.Fatalf("re-issued shed query served from cache: %+v", out.Cache)
	}
	if out.Admission == nil || out.Admission.ActualUnits < 1 {
		t.Fatalf("re-issued shed query did not really execute: %+v", out.Admission)
	}

	// Final ledger: 3 executions total (a1, a2, re-issued a3), each
	// observed once by the estimator; exactly one shed. The re-issued
	// query may classify cheap by then — the first two executions taught
	// the estimator the shape is cheap on this graph — so count
	// admissions across both classes.
	if est := s.est.Stats(); est.Observations != 3 {
		t.Fatalf("estimator observations = %d, want 3", est.Observations)
	}
	st := s.ctrl.Stats()
	if st.Analytical.Shed() != 1 || st.Analytical.Admitted+st.Cheap.Admitted != 3 {
		t.Fatalf("controller stats: %+v", st)
	}
}

// A warm cache entry answers without entering the admission queue at
// all, even while the analytical class is fully saturated.
func TestAdmissionCacheBypass(t *testing.T) {
	s, ts, release := newAdmissionServer(t, 30*time.Second)

	// Warm an analytical-class query while the server is idle. The gate
	// parks it, so run it from a goroutine and open the gate just for it.
	warmQ := analyticalQuery(7)
	warm := make(chan wire.Response[wire.Row], 1)
	go func() {
		_, _, out, _ := postRaw(t, ts.URL, wire.Request{Query: warmQ, TimeoutMS: 20000})
		warm <- out
	}()
	waitUntil(t, "warm query to occupy its slot", func() bool {
		return s.ctrl.Stats().Analytical.Running == 1
	})
	release()
	if out := <-warm; out.Admission == nil || out.Admission.CacheBypass {
		t.Fatalf("warming run admission report: %+v", out.Admission)
	}

	// Saturate: a fresh gate is not available (release closed it), but
	// saturation needs no gate — fill the slot and the queue with
	// requests parked on the controller itself via a full queue. Instead,
	// rebuild saturation with a new server? No: the closed gate means
	// analytical requests now run instantly, so instead saturate by
	// shrinking to the controller level: acquire the analytical slot and
	// fill the queue directly.
	relSlot, _, err := s.ctrl.Acquire(context.Background(), admission.Analytical, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer relSlot()
	queued := make(chan struct{})
	go func() {
		rel, _, err := s.ctrl.Acquire(context.Background(), admission.Analytical, 1)
		if err == nil {
			rel()
		}
		close(queued)
	}()
	waitUntil(t, "filler to queue", func() bool {
		return s.ctrl.Stats().Analytical.Queued == 1
	})

	// A cold analytical query sheds — the saturation is real. It needs a
	// shape the estimator has NOT learned yet (5 members, not 4): the
	// warming run taught it that the 4-member shape is cheap here.
	coldQ := "SELECT ?w WHERE { CONNECT qa8 qb qc qd qe AS ?w . }"
	code, _, _, _ := postRaw(t, ts.URL, wire.Request{Query: coldQ, TimeoutMS: 20000})
	if code != http.StatusTooManyRequests {
		t.Fatalf("cold analytical under saturation: status %d, want 429", code)
	}

	// The warm query is answered from cache without touching the queue.
	code, _, out, fail := postRaw(t, ts.URL, wire.Request{Query: warmQ, TimeoutMS: 20000})
	if code != http.StatusOK {
		t.Fatalf("warm query under saturation: status %d: %+v", code, fail)
	}
	if out.Admission == nil || !out.Admission.CacheBypass {
		t.Fatalf("warm query did not bypass admission: %+v", out.Admission)
	}
	if out.Cache == nil || !out.Cache.Hit {
		t.Fatalf("warm query cache report: %+v", out.Cache)
	}

	relSlot()
	<-queued
}

// The feedback the estimator learns from counts BGP work: a BGP-only
// query that scans a label reports the scanned edges (at the static
// model's 64 edges per unit), not the floor of 1 it reported when only
// tree constructions counted; a query without a BGP reports its tree
// constructions and nothing else, as before.
func TestAdmissionActualUnitsCountBGPWork(t *testing.T) {
	_, ts, release := newAdmissionServer(t, 30*time.Second)
	release()

	code, _, out, fail := postRaw(t, ts.URL, wire.Request{Query: "SELECT ?a ?b WHERE { ?a knows ?b . }", TimeoutMS: 20000})
	if code != http.StatusOK {
		t.Fatalf("BGP-only query: status %d: %+v", code, fail)
	}
	if out.Search.BGPExamined < 500 || out.Search.BGPRows < out.RowCount {
		t.Fatalf("search = %+v; want the knows label's ~800 edges examined and at least %d rows", out.Search, out.RowCount)
	}
	if want := float64(out.Search.BGPExamined) / 64; out.Admission == nil || out.Admission.ActualUnits != want || want <= 1 {
		t.Fatalf("BGP-only query: admission %+v, want actual_units %v (> 1)", out.Admission, want)
	}

	code, _, out, fail = postRaw(t, ts.URL, wire.Request{Query: "SELECT ?w WHERE { CONNECT n1 n2 AS ?w MAX 4 . }", TimeoutMS: 20000})
	if code != http.StatusOK {
		t.Fatalf("CONNECT-only query: status %d: %+v", code, fail)
	}
	if out.Search.BGPExamined != 0 || out.Admission == nil || out.Admission.ActualUnits != float64(out.Search.TreesGenerated) || out.Search.TreesGenerated < 1 {
		t.Fatalf("CONNECT-only query: search %+v, admission %+v; want actual_units = trees_generated", out.Search, out.Admission)
	}
}
