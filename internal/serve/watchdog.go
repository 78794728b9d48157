package serve

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"ctpquery/internal/obs"
)

// HealthState is the /healthz state machine. A server is "ok" until the
// memory watchdog trips a watermark ("degraded": still serving, but
// shedding cache and capping parallelism) or shutdown begins
// ("draining": 503 so load balancers stop routing to it). Draining is
// terminal — the watchdog never downgrades it back to ok/degraded.
type HealthState int32

const (
	HealthOK HealthState = iota
	HealthDegraded
	HealthDraining
)

func (h HealthState) String() string {
	switch h {
	case HealthDegraded:
		return "degraded"
	case HealthDraining:
		return "draining"
	default:
		return "ok"
	}
}

// Health reports the current /healthz state.
func (s *Server) Health() HealthState {
	return HealthState(s.health.Load())
}

// SetDraining moves the server to the terminal draining state. Call it
// on SIGTERM before the graceful http.Server.Shutdown so health checks
// fail (503) while in-flight requests finish.
func (s *Server) SetDraining() {
	s.health.Store(int32(HealthDraining))
}

// setDegraded flips between ok and degraded without ever touching a
// draining server: shutdown wins over memory pressure.
func (s *Server) setDegraded(degraded bool) {
	want := int32(HealthOK)
	if degraded {
		want = int32(HealthDegraded)
	}
	for {
		cur := s.health.Load()
		if cur == int32(HealthDraining) || cur == want {
			return
		}
		if s.health.CompareAndSwap(cur, want) {
			return
		}
	}
}

// scaleBudget tightens (or restores) the admission cost budget; a no-op
// when the server runs without admission control.
func (s *Server) scaleBudget(scale float64) {
	if s.ctrl != nil {
		s.ctrl.SetBudgetScale(scale)
	}
}

// Memory pressure levels, in ladder order.
const (
	pressureNone = iota
	pressureSoft
	pressureHard
)

// watchdog is the graceful-degradation ladder: it samples the live heap
// and, when a watermark trips, sheds query-cache bytes, caps the
// effective parallelism of every request, and tightens the admission
// cost budget — stepping each knob further at the hard watermark and
// restoring all of them once the heap falls back below the soft one.
//
// The ladder is applied on level *transitions* with hysteresis (recovery
// requires dropping below 4/5 of the soft watermark), so a heap
// oscillating around a boundary doesn't thrash the cache.
type watchdog struct {
	s        *Server
	soft     int64
	hard     int64
	interval time.Duration

	// readHeap is swapped by tests to drive the ladder deterministically.
	readHeap func() int64

	mu          sync.Mutex
	level       int
	lastHeap    int64
	shedBytes   int64 // total cache bytes dropped by this watchdog
	transitions int64 // level changes, for /healthz and /metrics
}

// newWatchdog builds the ladder from Config; nil (disabled) without a
// soft watermark. The hard watermark defaults to twice the soft one.
func newWatchdog(s *Server, cfg Config) *watchdog {
	if cfg.MemSoftBytes <= 0 {
		return nil
	}
	hard := cfg.MemHardBytes
	if hard <= 0 {
		hard = 2 * cfg.MemSoftBytes
	}
	if hard < cfg.MemSoftBytes {
		hard = cfg.MemSoftBytes
	}
	interval := cfg.WatchdogInterval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	return &watchdog{
		s:        s,
		soft:     cfg.MemSoftBytes,
		hard:     hard,
		interval: interval,
		readHeap: heapBytes,
	}
}

// heapBytes reads the live-heap size (bytes occupied by reachable plus
// not-yet-swept objects) from runtime/metrics — the number the
// watermarks are written against. Cheap enough to sample every tick.
func heapBytes() int64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return int64(sample[0].Value.Uint64())
}

// StartWatchdog begins sampling until ctx is done. It is a no-op on a
// server configured without MemSoftBytes.
func (s *Server) StartWatchdog(ctx context.Context) {
	if s.wd == nil {
		return
	}
	go s.wd.run(ctx)
}

func (w *watchdog) run(ctx context.Context) {
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.check(w.readHeap())
		}
	}
}

// check classifies one heap sample and applies the ladder on level
// changes. Exported to the package's tests, which call it directly with
// synthetic heap sizes instead of allocating gigabytes.
func (w *watchdog) check(heap int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lastHeap = heap

	next := w.level
	switch {
	case heap >= w.hard:
		next = pressureHard
	case heap >= w.soft:
		next = pressureSoft
	case heap < w.soft*4/5:
		next = pressureNone
		// Between 4/5·soft and soft: hold the current level (hysteresis).
	}
	if next == w.level {
		return
	}
	w.level = next
	w.transitions++
	w.apply(next)
}

// apply sets every knob for the given level. Each level states its
// absolute configuration rather than a delta, so applying is idempotent
// and transitions in either direction land in a consistent state.
func (w *watchdog) apply(level int) {
	switch level {
	case pressureHard:
		w.s.setDegraded(true)
		w.shedBytes += w.s.base.ShedCache(0) // empty the cache
		w.s.parCeiling.Store(1)
		w.s.scaleBudget(0.25)
	case pressureSoft:
		w.s.setDegraded(true)
		w.shedBytes += w.s.base.ShedCache(0.5)
		half := int32(runtime.GOMAXPROCS(0) / 2)
		if half < 1 {
			half = 1
		}
		w.s.parCeiling.Store(half)
		w.s.scaleBudget(0.5)
	default:
		w.s.setDegraded(false)
		w.s.parCeiling.Store(0) // no ceiling
		w.s.scaleBudget(1)
	}
}

// rows is the watchdog's part of the counter table, keyed for /healthz's
// "memory" object.
func (w *watchdog) rows() []obs.Stat {
	w.mu.Lock()
	defer w.mu.Unlock()
	levels := [...]string{"none", "soft", "hard"}
	return []obs.Stat{
		{Name: "ctp_watchdog_level", Help: "Memory-pressure ladder level (0 none, 1 soft, 2 hard).", Type: "gauge", Value: w.level},
		{Key: "transitions", Name: "ctp_watchdog_transitions_total", Help: "Ladder level changes.", Type: "counter", Value: w.transitions},
		{Key: "shed_cache_bytes", Name: "ctp_watchdog_shed_cache_bytes_total", Help: "Cache bytes dropped by the watchdog.", Type: "counter", Value: w.shedBytes},
		{Key: "pressure", Value: levels[w.level]},
		{Key: "heap_bytes", Value: w.lastHeap},
		{Key: "soft_bytes", Value: w.soft},
		{Key: "hard_bytes", Value: w.hard},
	}
}
