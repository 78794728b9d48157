package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/fault"
	"ctpquery/internal/testutil"
	"ctpquery/internal/wire"
)

const chaosServeQuery = "SELECT ?w WHERE { CONNECT n1 n400 AS ?w MAX 16 LIMIT 1 . }"

// TestChaosPanicReleasesAdmissionSlot is the slot-leak regression: with
// exactly ONE execution slot, a request that panics while holding it
// must answer 500 (structured JSON) AND release the slot, or every
// subsequent request sheds forever.
func TestChaosPanicReleasesAdmissionSlot(t *testing.T) {
	defer fault.Reset()
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := ctpquery.Open(g, &ctpquery.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{
		DefaultTimeout: 5 * time.Second,
		Admission:      &admission.Config{MaxConcurrent: 1, QueueDepth: 4, MaxQueueWait: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	// First request panics after admission (while holding the only slot).
	fault.Reset()
	if err := fault.Arm("serve.query.admitted", fault.Fault{Kind: fault.Panic}); err != nil {
		t.Fatal(err)
	}
	code, _, fail := postQuery(t, ts.URL, wire.Request{Query: chaosServeQuery})
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request answered %d, want 500", code)
	}
	if fail.Error == "" {
		t.Fatal("500 carried no structured error body")
	}
	if s.panics.Load() == 0 {
		t.Fatal("middleware did not count the recovered panic")
	}

	// Disarmed, the next request must get the slot — it was released
	// during the panic unwind, not leaked.
	fault.Reset()
	code, out, fail := postQuery(t, ts.URL, wire.Request{Query: chaosServeQuery})
	if code != http.StatusOK {
		t.Fatalf("post-panic request answered %d (%s): the admission slot leaked", code, fail.Error)
	}
	if out.RowCount == 0 {
		t.Fatal("post-panic request returned no rows")
	}
}

// TestChaosEveryProbeThroughServer sweeps a panic through every
// registered probe point in the whole runtime — exec workers, kernels,
// engine, cache singleflight, serve — via real HTTP requests. The
// invariant: each response is 200 (fault didn't fire on that path) or a
// structured 500 (contained), the server keeps serving afterwards, and
// no goroutines leak.
func TestChaosEveryProbeThroughServer(t *testing.T) {
	defer fault.Reset()
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := ctpquery.Open(g, &ctpquery.Options{Parallel: true, Parallelism: 4},
		ctpquery.WithCache(16<<20, 0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, Config{DefaultTimeout: 10 * time.Second, MaxParallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()
	baseline := runtime.NumGoroutine()

	for i, point := range fault.Points() {
		t.Run(point, func(t *testing.T) {
			fault.Reset()
			if err := fault.Arm(point, fault.Fault{Kind: fault.Panic}); err != nil {
				t.Fatal(err)
			}
			// Distinct node pair per probe so the result cache can't answer
			// from an earlier sweep iteration and mask the probe's path.
			q := wire.Request{Query: fmt.Sprintf(
				"SELECT ?w WHERE { CONNECT n%d n%d AS ?w MAX 16 LIMIT 1 . }", 2+i, 200+i)}
			code, _, fail := postQuery(t, ts.URL, q)
			fired := fault.Fired(point)
			switch {
			case fired > 0 && code != http.StatusInternalServerError:
				t.Fatalf("probe fired but answered %d (%s), want 500", code, fail.Error)
			case fired > 0 && fail.Error == "":
				t.Fatal("500 carried no structured error")
			case fired == 0 && code != http.StatusOK:
				t.Fatalf("probe idle yet request failed: %d %s", code, fail.Error)
			}

			// The server must still be alive for a clean follow-up.
			fault.Reset()
			code, _, fail = postQuery(t, ts.URL, wire.Request{Query: chaosServeQuery})
			if code != http.StatusOK {
				t.Fatalf("server wedged after %s: %d %s", point, code, fail.Error)
			}
		})
	}
	fault.Reset()
	testutil.SettleGoroutines(t, baseline, 4)
}
