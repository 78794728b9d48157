package ctpquery_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ctpquery"
	"ctpquery/internal/qcache"
)

func mustCacheStats(t *testing.T, db *ctpquery.DB) ctpquery.CacheStats {
	t.Helper()
	st, ok := db.CacheStats()
	if !ok {
		t.Fatal("DB has no cache")
	}
	return st
}

// A cache hit must return results equal to a cold run: golden equality on
// the paper's running example and on random graphs.
func TestCacheHitEqualsColdRun(t *testing.T) {
	type tc struct {
		name  string
		graph *ctpquery.Graph
		query string
	}
	cases := []tc{
		{"fig1", ctpquery.SampleGraph(), figure1Query},
	}
	for _, seed := range []int64{7, 42} {
		cases = append(cases, tc{
			fmt.Sprintf("random-seed%d", seed),
			ctpquery.RandomGraph(300, 900, []string{"knows", "cites"}, seed),
			"SELECT ?w WHERE { CONNECT n1 n200 AS ?w MAX 5 . }",
		})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cold, err := ctpquery.Open(c.graph, nil)
			if err != nil {
				t.Fatal(err)
			}
			cached, err := ctpquery.Open(c.graph, nil, ctpquery.WithCache(16<<20))
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Query(context.Background(), c.query)
			if err != nil {
				t.Fatal(err)
			}
			first, info, err := cached.QueryWithInfo(context.Background(), c.query)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Enabled || info.Hit {
				t.Fatalf("first run info = %+v, want enabled miss", info)
			}
			second, info, err := cached.QueryWithInfo(context.Background(), c.query)
			if err != nil {
				t.Fatal(err)
			}
			if !info.Hit {
				t.Fatalf("second run info = %+v, want hit", info)
			}
			wantRows := rowStrings(want)
			for run, res := range map[string]*ctpquery.Results{"cold-path": first, "hit-path": second} {
				got := rowStrings(res)
				if len(got) != len(wantRows) {
					t.Fatalf("%s: %d rows, want %d", run, len(got), len(wantRows))
				}
				for i := range got {
					if got[i] != wantRows[i] {
						t.Fatalf("%s row %d = %q, want %q", run, i, got[i], wantRows[i])
					}
				}
			}
			if first.ApproxSize() <= 0 {
				t.Errorf("ApproxSize = %d, want > 0", first.ApproxSize())
			}
			st := mustCacheStats(t, cached)
			if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes <= 0 {
				t.Errorf("cache stats = %+v", st)
			}
		})
	}
}

// K concurrent identical queries must collapse into exactly one engine
// execution: one miss, K-1 hits or coalesced waiters.
func TestCacheSingleflightFacade(t *testing.T) {
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := ctpquery.Open(g, nil, ctpquery.WithCache(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	const query = "SELECT ?w WHERE { CONNECT n1 n400 AS ?w MAX 6 . }"
	var wg sync.WaitGroup
	results := make([]*ctpquery.Results, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := db.QueryWithInfo(context.Background(), query)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	st := mustCacheStats(t, db)
	if st.Misses != 1 {
		t.Fatalf("%d engine executions, want singleflight to allow exactly 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Coalesced != k-1 {
		t.Fatalf("hits %d + coalesced %d = %d, want %d", st.Hits, st.Coalesced, st.Hits+st.Coalesced, k-1)
	}
	for i, res := range results {
		if res == nil || res.Len() != results[0].Len() {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
}

// A run that timed out is returned to its caller but never admitted: the
// next identical request re-executes instead of being served the stale
// partial.
func TestCacheRejectsTimedOut(t *testing.T) {
	db, err := ctpquery.Open(ctpquery.SampleGraph(), nil, ctpquery.WithCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	// An already-expired deadline clamps every search to a nanosecond:
	// deterministic partial results, flagged TimedOut.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	partial, err := db.Query(ctx, figure1Query)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.TimedOut() {
		t.Fatal("expired deadline did not flag TimedOut; test premise broken")
	}
	if st := mustCacheStats(t, db); st.Entries != 0 || st.Rejected != 1 {
		t.Fatalf("partial result admitted: %+v", st)
	}

	full, info, err := db.QueryWithInfo(context.Background(), figure1Query)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit {
		t.Fatal("second request served the stale partial from cache")
	}
	if full.TimedOut() {
		t.Fatal("unbounded re-execution still timed out")
	}
	if full.Len() == 0 {
		t.Fatal("re-execution returned no rows")
	}
	if st := mustCacheStats(t, db); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("cache stats after re-execution = %+v", st)
	}
}

// A run a CONNECT LIMIT stopped early IS cacheable: the LIMIT is part
// of the canonical query text, so every future request of this key
// wants exactly that bound — the run is the complete answer to the
// query as written, and caching it keeps the kept subset stable across
// requests. (Timed-out runs remain uncacheable: the time budget is
// deliberately not part of the key.)
func TestCacheAdmitsLimitTruncated(t *testing.T) {
	db, err := ctpquery.Open(ctpquery.SampleGraph(), nil, ctpquery.WithCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	const query = "SELECT ?w WHERE { CONNECT Alice France AS ?w MAX 3 LIMIT 1 . }"
	res, err := db.Query(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated() {
		t.Fatal("LIMIT 1 did not truncate; test premise broken")
	}
	res2, info, err := db.QueryWithInfo(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatal("LIMIT-completed result was not served from cache")
	}
	if res2.Len() != res.Len() {
		t.Fatalf("cached rows = %d, want %d", res2.Len(), res.Len())
	}
	if st := mustCacheStats(t, db); st.Entries != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v", st)
	}
}

// A canceled run errors out and leaves nothing behind; the next request
// executes normally.
func TestCacheRejectsCanceled(t *testing.T) {
	db, err := ctpquery.Open(ctpquery.SampleGraph(), nil, ctpquery.WithCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Query(ctx, figure1Query); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	if st := mustCacheStats(t, db); st.Entries != 0 {
		t.Fatalf("canceled run admitted: %+v", st)
	}
	res, info, err := db.QueryWithInfo(context.Background(), figure1Query)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hit || res.Len() == 0 {
		t.Fatalf("recovery run: info=%+v len=%d", info, res.Len())
	}

	// Cancellation wins even when the entry is now warm: a hit must not
	// change Run's documented ctx.Err() contract.
	if _, err := db.Query(ctx, figure1Query); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm-cache canceled run returned %v, want context.Canceled", err)
	}
}

// A waiter whose own deadline expires while queued behind a slow leader
// must get Run's deadline semantics — partial results flagged TimedOut,
// never a DeadlineExceeded error.
func TestCacheWaiterDeadlineYieldsPartial(t *testing.T) {
	g := ctpquery.RandomGraph(800, 2400, []string{"knows", "cites", "funds"}, 42)
	db, err := ctpquery.Open(g, nil, ctpquery.WithCache(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	// The exhaustive 6-seed enumeration runs for far longer than the test;
	// the leader holds the singleflight slot until we cancel it.
	q, err := ctpquery.ParseQuery("SELECT ?w WHERE { CONNECT n1 n2 n3 n4 n5 n6 AS ?w . }")
	if err != nil {
		t.Fatal(err)
	}
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if _, err := db.Run(leaderCtx, q); !errors.Is(err, context.Canceled) {
			t.Errorf("leader returned %v, want context.Canceled", err)
		}
	}()
	// Let the leader register its in-flight slot (its search runs for
	// seconds; 100ms is orders of magnitude inside that window).
	time.Sleep(100 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, info, err := db.RunWithInfo(ctx, q)
	if err != nil {
		t.Fatalf("waiter with expired deadline errored: %v", err)
	}
	if !res.TimedOut() {
		t.Error("waiter's fallback run not flagged TimedOut")
	}
	if info.Hit {
		t.Errorf("waiter info = %+v, want a direct partial run", info)
	}
	if st := mustCacheStats(t, db); st.Entries != 0 {
		t.Errorf("a partial run was admitted: %+v", st)
	}

	cancelLeader()
	select {
	case <-leaderDone:
	case <-time.After(10 * time.Second):
		t.Fatal("leader did not honor cancellation")
	}
}

// Derived DBs (With/WithOptions) share the parent's cache instance; the
// options signature inside the key keeps their entries apart.
func TestDerivedDBSharesCache(t *testing.T) {
	base, err := ctpquery.Open(ctpquery.SampleGraph(), nil, ctpquery.WithCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	derived, err := base.With(ctpquery.WithAlgorithm("GAM"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Query(context.Background(), figure1Query); err != nil {
		t.Fatal(err)
	}
	// Different algorithm, different key: a miss even though the cache is
	// shared.
	if _, info, err := derived.QueryWithInfo(context.Background(), figure1Query); err != nil {
		t.Fatal(err)
	} else if info.Hit {
		t.Fatal("different algorithm served from the MoLESP entry")
	}
	// Same algorithm through the derived handle: a hit on the shared
	// instance.
	if _, info, err := derived.QueryWithInfo(context.Background(), figure1Query); err != nil {
		t.Fatal(err)
	} else if !info.Hit {
		t.Fatal("derived DB did not share the parent cache")
	}
	st := mustCacheStats(t, base)
	if st.Misses != 2 || st.Hits != 1 || st.Entries != 2 {
		t.Fatalf("shared cache stats = %+v", st)
	}
	if dst := mustCacheStats(t, derived); dst != st {
		t.Fatalf("derived stats %+v != base stats %+v", dst, st)
	}
}

// The key carries the resolved algorithm, not the name as typed: a
// request that spells out the default algorithm — what ctpserve derives a
// DB for — must hit the entries the default path filled.
func TestCacheKeyIgnoresAlgorithmSpelling(t *testing.T) {
	base, err := ctpquery.Open(ctpquery.SampleGraph(), nil, ctpquery.WithCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Query(context.Background(), figure1Query); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "molesp", "MoLESP", "Mo-LESP"} {
		derived, err := base.With(ctpquery.WithAlgorithm(name))
		if err != nil {
			t.Fatal(err)
		}
		if _, info, err := derived.QueryWithInfo(context.Background(), figure1Query); err != nil {
			t.Fatal(err)
		} else if !info.Hit {
			t.Errorf("algorithm %q missed the entry the default algorithm filled", name)
		}
	}
	if st := mustCacheStats(t, base); st.Entries != 1 {
		t.Fatalf("one behaviour, %d cache entries", st.Entries)
	}
}

// RunStream bypasses the cache in both directions: it re-executes even
// when an entry exists, and its runs are never admitted.
func TestStreamBypassesCache(t *testing.T) {
	db, err := ctpquery.Open(ctpquery.SampleGraph(), nil, ctpquery.WithCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctpquery.ParseQuery(figure1Query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	streamed := 0
	if _, err := db.RunStream(context.Background(), q, func(int, *ctpquery.Tree) bool {
		streamed++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if streamed == 0 {
		t.Fatal("stream callback never fired — a cached result cannot stream")
	}
	st := mustCacheStats(t, db)
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("RunStream touched the cache: %+v", st)
	}
}

// A cached result's hits may derive values from it — a server's
// rendering (Results.Memo), the spelling of the text it was asked by
// (Peek files it as an alias) — and they are charged to the entry: not on
// the run that fills it, once per variant, and freed with it.
func TestHitDerivedValuesChargedToEntry(t *testing.T) {
	g := ctpquery.RandomGraph(300, 900, []string{"knows", "cites"}, 7)
	db, err := ctpquery.Open(g, nil, ctpquery.WithCache(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One-shot entries cost their admission charge and nothing else: the
	// charge less the result's size and its key text is the same fixed
	// amount for two queries.
	var fixed []int64
	var before int64
	texts := []string{
		"SELECT ?w WHERE { CONNECT n1 n200 AS ?w MAX 5 . }",
		"SELECT ?w WHERE { CONNECT n2 n201 AS ?w MAX 5 . }",
	}
	for _, text := range texts {
		res, err := db.Query(ctx, text)
		if err != nil {
			t.Fatal(err)
		}
		q, _ := ctpquery.ParseQuery(text)
		after := mustCacheStats(t, db).Bytes
		fixed = append(fixed, after-before-res.ApproxSize()-int64(len(q.String())))
		before = after
	}
	if fixed[0] != fixed[1] {
		t.Fatalf("one-shot entries charged %v beyond result and key, want one fixed amount", fixed)
	}

	// A hit through Peek files the text as an alias, once.
	q, _ := ctpquery.ParseQuery(texts[0])
	res, ok := db.Peek(q)
	if !ok {
		t.Fatal("Peek missed a cached query")
	}
	aliased := mustCacheStats(t, db).Bytes
	if want := before + int64(len(texts[0])) + qcache.AliasOverhead; aliased != want {
		t.Fatalf("after the aliasing hit: %d bytes, want %d", aliased, want)
	}
	if got, ok := db.PeekText(texts[0]); !ok || got != res {
		t.Fatal("PeekText did not find the entry by its alias")
	}
	if got, ok := db.PeekText(q.String()); !ok || got != res {
		t.Fatal("PeekText did not find the entry by its canonical text")
	}
	db.Peek(q)
	if b := mustCacheStats(t, db).Bytes; b != aliased {
		t.Fatalf("a repeated hit charged %d bytes", b-aliased)
	}

	// Memo builds once per variant and charges the entry.
	builds := 0
	build := func() (any, int64) { builds++; return builds, 1000 }
	if v := res.Memo(1, build); v != 1 {
		t.Fatalf("first Memo = %v", v)
	}
	memoed := mustCacheStats(t, db).Bytes
	overhead := memoed - aliased - 1000
	if overhead <= 0 || overhead > 128 {
		t.Fatalf("a 1000-byte memo charged %d bytes", memoed-aliased)
	}
	if v := res.Memo(1, build); v != 1 || builds != 1 {
		t.Fatalf("second Memo = %v after %d builds, want the kept value", v, builds)
	}

	// Concurrent first uses of other variants keep one value each.
	var wg sync.WaitGroup
	kept := make([][4]any, 8)
	for w := range kept {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := uint64(2 + (w+i)%4)
				kept[w][v-2] = res.Memo(v, func() (any, int64) { return new(int), 1000 })
			}
		}(w)
	}
	wg.Wait()
	for v := uint64(2); v < 6; v++ {
		stored := res.Memo(v, func() (any, int64) { t.Fatal("rebuilt a kept variant"); return nil, 0 })
		for w := range kept {
			if kept[w][v-2] != stored {
				t.Fatalf("variant %d: a late caller got another value than the kept one", v)
			}
		}
	}
	if b := mustCacheStats(t, db).Bytes; b != memoed+4*(1000+overhead) {
		t.Fatalf("four variants charged %d bytes, want %d", b-memoed, 4*(1000+overhead))
	}

	// Shedding frees the entry with everything charged to it.
	db.ShedCache(0)
	if st := mustCacheStats(t, db); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("after shedding: %+v", st)
	}
	if _, ok := db.PeekText(texts[0]); ok {
		t.Fatal("an alias outlived its entry")
	}
	// An evicted result keeps nothing new.
	if v := res.Memo(9, build); v != 2 || res.Memo(9, build) != 3 {
		t.Fatal("an evicted result kept a memo")
	}

	// So does a result no cache holds.
	plain, err := ctpquery.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err = plain.Query(ctx, texts[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Memo(1, build) == res.Memo(1, build) {
		t.Fatal("an uncached result kept a memo")
	}
}
