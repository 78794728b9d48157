package qcache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ctpquery/internal/fault"
)

func key(s string) Key { return Key{Graph: 1, Query: s, Opts: "o"} }

// charge is what the cache bills an admitted entry: payload + key
// strings + fixed overhead.
func charge(k Key, size int64) int64 {
	return size + int64(len(k.Query)) + int64(len(k.Opts)) + EntryOverhead
}

// doVal runs a trivial admitted execution returning v with size.
func doVal(t *testing.T, c *Cache, k Key, v string, size int64) (string, bool, bool) {
	t.Helper()
	val, hit, coal, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
		return v, size, true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return val.(string), hit, coal
}

func TestHitMiss(t *testing.T) {
	c := New(1 << 20)
	if v, hit, _ := doVal(t, c, key("q"), "r1", 10); hit || v != "r1" {
		t.Fatalf("first call: hit=%v v=%q", hit, v)
	}
	// A hit returns the stored value, not the new execution's.
	if v, hit, _ := doVal(t, c, key("q"), "r2", 10); !hit || v != "r1" {
		t.Fatalf("second call: hit=%v v=%q, want stored r1", hit, v)
	}
	if v, hit, _ := doVal(t, c, key("other"), "r3", 10); hit || v != "r3" {
		t.Fatalf("distinct key: hit=%v v=%q", hit, v)
	}
	st := c.Stats()
	wantBytes := charge(key("q"), 10) + charge(key("other"), 10)
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 || st.Bytes != wantBytes {
		t.Fatalf("stats = %+v, want %d bytes", st, wantBytes)
	}
}

func TestAdmissionRejected(t *testing.T) {
	c := New(1 << 20)
	execs := 0
	run := func() (string, bool) {
		v, hit, _, err := c.Do(context.Background(), key("q"), func() (any, int64, bool, error) {
			execs++
			return fmt.Sprintf("r%d", execs), 8, false, nil // never admit
		})
		if err != nil {
			t.Fatal(err)
		}
		return v.(string), hit
	}
	if v, hit := run(); hit || v != "r1" {
		t.Fatalf("first: hit=%v v=%q", hit, v)
	}
	// Not admitted, so the next call re-executes.
	if v, hit := run(); hit || v != "r2" {
		t.Fatalf("second: hit=%v v=%q, want re-execution", hit, v)
	}
	if st := c.Stats(); st.Rejected != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget for two 40-byte entries (incl. key + fixed overhead) with
	// headroom, but not three.
	perEntry := charge(key("a"), 40)
	c := New(2*perEntry + perEntry/2)
	doVal(t, c, key("a"), "a", 40)
	doVal(t, c, key("b"), "b", 40)
	doVal(t, c, key("a"), "", 0) // touch a so b is the LRU victim
	doVal(t, c, key("c"), "c", 40)
	if _, ok := c.get(key("b")); ok {
		t.Error("b survived eviction, want LRU victim")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(key(k)); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 2*perEntry {
		t.Fatalf("stats = %+v, want %d bytes", st, 2*perEntry)
	}

	// An entry larger than the whole budget is rejected, not stored by
	// evicting everything else.
	doVal(t, c, key("huge"), "h", 1000)
	if _, ok := c.get(key("huge")); ok {
		t.Error("over-budget entry stored")
	}
	if _, ok := c.get(key("a")); !ok {
		t.Error("over-budget admission evicted existing entries")
	}
}

// TestSingleflight: K concurrent callers of one key produce exactly one
// execution; everyone gets the leader's value.
func TestSingleflight(t *testing.T) {
	c := New(1 << 20)
	const k = 32
	var execs atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	vals := make([]string, k)
	hits := make([]bool, k)
	coals := make([]bool, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, coal, err := c.Do(context.Background(), key("q"), func() (any, int64, bool, error) {
				close(started) // only the single leader may reach this
				execs.Add(1)
				<-release
				return "leader", 8, true, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			vals[i], hits[i], coals[i] = v.(string), hit, coal
		}(i)
	}
	<-started
	// Give waiters a moment to pile onto the in-flight call, then let the
	// leader finish. Latecomers that arrive after completion hit the cache
	// instead — either way exactly one execution happened.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("%d executions, want 1", n)
	}
	leaders := 0
	for i := range vals {
		if vals[i] != "leader" {
			t.Fatalf("caller %d got %q", i, vals[i])
		}
		if !hits[i] && !coals[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits+st.Coalesced != k-1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A waiter whose own context is canceled stops waiting; the leader's
// execution and admission proceed regardless.
func TestWaiterCancellation(t *testing.T) {
	c := New(1 << 20)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), key("q"), func() (any, int64, bool, error) {
			close(started)
			<-release
			return "v", 8, true, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := c.Do(ctx, key("q"), func() (any, int64, bool, error) {
			t.Error("canceled waiter executed")
			return nil, 0, false, nil
		})
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter error = %v, want context.Canceled", err)
	}

	close(release)
	// The leader still completed and admitted.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := c.get(key("q")); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader's value never admitted")
		}
		time.Sleep(time.Millisecond)
	}
}

// A failing leader must not poison its waiters: they retry instead of
// inheriting the leader's (context) error.
func TestLeaderErrorWaiterRetries(t *testing.T) {
	c := New(1 << 20)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), key("q"), func() (any, int64, bool, error) {
			close(started)
			<-release
			return nil, 0, false, context.Canceled
		})
	}()
	<-started

	waiter := make(chan struct{})
	go func() {
		v, _, coal, err := c.Do(context.Background(), key("q"), func() (any, int64, bool, error) {
			return "retried", 8, true, nil
		})
		// The waiter re-executed itself, so it reports coalesced=false:
		// it did the work, and servers must account its search effort.
		if err != nil || v.(string) != "retried" || coal {
			t.Errorf("waiter after leader error: v=%v coalesced=%v err=%v", v, coal, err)
		}
		close(waiter)
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter attach
	close(release)
	select {
	case <-waiter:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed after leader error")
	}
}

// A leader's inadmissible (partial) result is served to the leader
// alone: waiters re-execute rather than being handed a partial their own
// budget might have completed.
func TestPartialNotSharedWithWaiters(t *testing.T) {
	c := New(1 << 20)
	release := make(chan struct{})
	started := make(chan struct{})
	leader := make(chan string, 1)
	go func() {
		v, _, _, err := c.Do(context.Background(), key("q"), func() (any, int64, bool, error) {
			close(started)
			<-release
			return "partial", 8, false, nil // e.g. the run timed out
		})
		if err != nil {
			t.Error(err)
		}
		leader <- v.(string)
	}()
	<-started

	waiter := make(chan struct{})
	go func() {
		defer close(waiter)
		v, hit, coal, err := c.Do(context.Background(), key("q"), func() (any, int64, bool, error) {
			return "complete", 8, true, nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		if v.(string) != "complete" || hit || coal {
			t.Errorf("waiter got v=%v hit=%v coalesced=%v, want its own complete re-execution", v, hit, coal)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let the waiter attach
	close(release)
	select {
	case <-waiter:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed")
	}
	if v := <-leader; v != "partial" {
		t.Errorf("leader got %q, want its own partial", v)
	}
}

// A panicking execution must not wedge the key: the in-flight slot is
// released, waiters retry, and the next caller executes normally.
func TestPanicReleasesKey(t *testing.T) {
	c := New(1 << 20)
	_, _, _, err := c.Do(context.Background(), key("q"), func() (any, int64, bool, error) {
		panic("engine blew up")
	})
	var pe *fault.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("leader got %v, want a contained *fault.PanicError", err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		v, hit, _, err := c.Do(context.Background(), key("q"), func() (any, int64, bool, error) {
			return "recovered", 8, true, nil
		})
		if err != nil || hit || v.(string) != "recovered" {
			t.Errorf("post-panic call: v=%v hit=%v err=%v", v, hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged after a panicking execution")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("stats after recovery = %+v", st)
	}
}

// Hammer the cache from many goroutines across a small key space; the
// -race build is the assertion.
func TestConcurrentMixedLoad(t *testing.T) {
	c := New(4096)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := key(fmt.Sprintf("q%d", j%7))
				c.Do(context.Background(), k, func() (any, int64, bool, error) {
					return "v", 512, j%3 != 0, nil
				})
				c.get(k)
				c.Stats()
			}
		}(i)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > 4096 {
		t.Fatalf("budget exceeded: %+v", st)
	}
}

// Charge and Alias grow a stored entry: the bytes count against the
// budget, the LRU makes room for them from its back, never by evicting
// the entry that grows, and they are returned with the entry.
func TestChargeAndAlias(t *testing.T) {
	perEntry := charge(key("a"), 40)
	c := New(3 * perEntry)
	doVal(t, c, key("a"), "a", 40)
	doVal(t, c, key("b"), "b", 40)
	doVal(t, c, key("c"), "c", 40)

	// Only the value a caller was served may be charged for.
	if c.Charge(key("a"), "not a", 1) || c.Charge(key("gone"), "a", 1) {
		t.Fatal("charged an entry that does not hold the value")
	}
	if c.Charge(key("a"), "a", 3*perEntry) {
		t.Fatal("charged an entry past the whole budget")
	}
	// a is the LRU back; growing it moves it to the front and evicts b.
	if !c.Charge(key("a"), "a", 10) {
		t.Fatal("charge refused")
	}
	st := c.Stats()
	if st.Bytes != 2*perEntry+10 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after the charge: %+v", st)
	}
	if _, ok := c.get(key("b")); ok {
		t.Fatal("b survived, want it evicted for a's charge")
	}

	alias := Key{Graph: 1, Query: "a, spelled otherwise", Opts: "o"}
	if !c.Alias(alias, key("a"), "a") || !c.Alias(alias, key("a"), "a") {
		t.Fatal("alias refused")
	}
	if c.Alias(alias, key("c"), "c") {
		t.Fatal("one alias named two entries")
	}
	wantBytes := 2*perEntry + 10 + int64(len(alias.Query)) + AliasOverhead
	if v, ok := c.Peek(alias); !ok || v != "a" || c.Stats().Bytes != wantBytes {
		t.Fatalf("Peek(alias) = %v, %t with %d bytes, want a and %d", v, ok, c.Stats().Bytes, wantBytes)
	}

	held := c.Stats().Bytes
	if freed := c.Shed(0); freed != held || c.Stats().Bytes != 0 {
		t.Fatalf("shed freed %d of %d bytes", freed, held)
	}
	if _, ok := c.Peek(alias); ok || len(c.aliases) != 0 {
		t.Fatalf("aliases outlived their entry: %d left", len(c.aliases))
	}

	// However much budget is left, one entry keeps at most maxAliases.
	c = New(1 << 20)
	doVal(t, c, key("a"), "a", 40)
	for i := 0; i <= maxAliases; i++ {
		c.Alias(Key{Graph: 1, Query: fmt.Sprint("a#", i), Opts: "o"}, key("a"), "a")
	}
	if n := len(c.aliases); n != maxAliases {
		t.Fatalf("%d aliases of one entry, want %d", n, maxAliases)
	}
}
