package qcache

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ctpquery/internal/fault"
)

// TestChaosLeaderPanicFailsWaiters is the -race regression test for the
// singleflight panic contract: a panicking leader must fail its waiters
// promptly (each receives the contained error rather than retrying the
// crashing execution), and the next identical query must re-execute
// cleanly because nothing was cached.
func TestChaosLeaderPanicFailsWaiters(t *testing.T) {
	const nWaiters = 8
	c := New(1 << 20)
	k := key("chaos")

	release := make(chan struct{})
	leaderIn := make(chan struct{})
	var leaderErr error
	var leaderDone sync.WaitGroup
	leaderDone.Add(1)
	go func() {
		defer leaderDone.Done()
		_, _, _, leaderErr = c.Do(context.Background(), k, func() (any, int64, bool, error) {
			close(leaderIn)
			<-release
			panic("leader blew up")
		})
	}()
	<-leaderIn // the leader is executing; everyone below becomes a waiter

	errs := make(chan error, nWaiters)
	var wg sync.WaitGroup
	for i := 0; i < nWaiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, coalesced, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
				t.Error("waiter re-executed after a leader panic")
				return nil, 0, false, nil
			})
			if !coalesced {
				t.Error("waiter reported coalesced=false")
			}
			errs <- err
		}()
	}

	// Wait until all N are actually parked on the in-flight call before
	// releasing the panic, so this test exercises waiters, not retries.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		cl := c.inflight[k]
		c.mu.Unlock()
		if cl != nil && cl.waiters.Load() == nWaiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never parked on the in-flight call")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	leaderDone.Wait()

	var pe *fault.PanicError
	if !errors.As(leaderErr, &pe) {
		t.Fatalf("leader got %v, want *fault.PanicError", leaderErr)
	}
	close(errs)
	n := 0
	for err := range errs {
		n++
		if !errors.As(err, &pe) {
			t.Fatalf("waiter got %v, want the leader's *fault.PanicError", err)
		}
	}
	if n != nWaiters {
		t.Fatalf("%d waiter errors, want %d", n, nWaiters)
	}

	// Nothing was cached, the key is released: the next identical query
	// re-executes cleanly and its result is admitted.
	v, hit, _, err := c.Do(context.Background(), k, func() (any, int64, bool, error) {
		return "clean", 8, true, nil
	})
	if err != nil || hit || v.(string) != "clean" {
		t.Fatalf("post-panic re-execution: v=%v hit=%v err=%v", v, hit, err)
	}
	if v, ok := c.Peek(k); !ok || v.(string) != "clean" {
		t.Fatalf("clean result was not cached (ok=%v v=%v)", ok, v)
	}
}

// TestChaosLeadProbePanic drives the same contract through the
// registered probe point instead of a cooperating exec function, the way
// the -fault flag would.
func TestChaosLeadProbePanic(t *testing.T) {
	defer fault.Reset()
	if err := fault.Arm("qcache.singleflight.lead", fault.Fault{Kind: fault.Panic}); err != nil {
		t.Fatal(err)
	}
	c := New(1 << 20)
	_, _, _, err := c.Do(context.Background(), key("probe"), func() (any, int64, bool, error) {
		return "v", 1, true, nil
	})
	if !fault.IsInjected(err) {
		t.Fatalf("err = %v, want an injected-fault PanicError", err)
	}
	fault.Reset()
	v, _, _, err := c.Do(context.Background(), key("probe"), func() (any, int64, bool, error) {
		return "v", 1, true, nil
	})
	if err != nil || v.(string) != "v" {
		t.Fatalf("after disarm: v=%v err=%v", v, err)
	}
}
