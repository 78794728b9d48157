package benchmarks

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// OpenLoopResult is what one open-loop phase measured. All slices are
// indexed by operation number.
type OpenLoopResult struct {
	Start time.Time
	// Latency is due time → completion: a stall in the system under test
	// is charged to every later operation it delayed, not only to the one
	// that happened to be in flight.
	Latency []time.Duration
	// Wait is due time → the moment a connection picked the operation up.
	Wait []time.Duration
	// Lag is how late the generator itself ran: due time → the moment the
	// pacer released the operation. It does not include waiting for a free
	// connection, so it judges the harness, not the system.
	Lag []time.Duration
}

// OpenLoop releases n operations on a fixed schedule — operation i is due
// at start + i/rate — to conns workers that each run do(i) to completion
// before taking the next. The pacer never blocks on a busy worker (due
// operations queue), so the schedule is independent of how the system
// under test behaves.
func OpenLoop(n int, rate float64, conns int, do func(i int)) OpenLoopResult {
	res := OpenLoopResult{
		Latency: make([]time.Duration, n),
		Wait:    make([]time.Duration, n),
		Lag:     make([]time.Duration, n),
	}
	// Buffer n: every operation can be queued, so the pacer's send never
	// waits on a worker.
	queue := make(chan int, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	res.Start = start
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }

	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				d := due(i)
				res.Wait[i] = time.Since(d)
				do(i)
				res.Latency[i] = time.Since(d)
			}
		}()
	}
	runtime.LockOSThread() // sleepFor blocks the thread
	defer runtime.UnlockOSThread()
	for i := 0; i < n; i++ {
		d := due(i)
		for wait := time.Until(d); wait > 0; wait = time.Until(d) {
			sleepFor(wait)
		}
		res.Lag[i] = time.Since(d)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// sleepFor blocks the calling thread for d with nanosleep(2). The Go
// runtime rounds a parked timer up to the netpoller's millisecond
// granularity when every P is idle, which would make an open-loop pacer
// release sub-millisecond schedules in 1 ms bursts; the kernel's
// high-resolution timer wakes within tens of microseconds. Callers lock
// their goroutine to its thread first. (The harness runs on Linux only:
// peak_rss_mb reads /proc/self/status.)
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early EINTR return is fine: callers re-check the clock
}
