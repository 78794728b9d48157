package ctpquery

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ctpquery/internal/core"
	"ctpquery/internal/fault"
	"ctpquery/internal/qcache"
)

// CacheConfig enables a query-result cache on a DB (Options.Cache or
// WithCache): completed results are stored in a byte-budgeted LRU keyed
// on (graph fingerprint, canonical query text, effective engine options)
// and served without re-running the search, and concurrent identical
// queries collapse into one engine execution (singleflight). Because the
// graph view a query runs against is immutable, cached entries never go
// stale — there is nothing to invalidate. On a live graph every mutation
// advances the fingerprint inside the key, so entries for an old epoch
// simply stop being asked for (and age out of the LRU), while a DB
// pinned to that epoch by Snapshot keeps hitting them.
//
// Partial results are never cached: a run that timed out, was truncated
// (LIMIT or a stopped stream), or was canceled is returned to its caller
// but re-executed on the next request, so the cache can only ever serve
// complete answers.
type CacheConfig struct {
	// MaxBytes is the cache budget, charged by Results.ApproxSize; <= 0
	// disables the cache.
	MaxBytes int64
}

// WithCache enables a query-result cache with the given byte budget; see
// CacheConfig.
func WithCache(maxBytes int64) QueryOption {
	return func(o *Options) { o.Cache = &CacheConfig{MaxBytes: maxBytes} }
}

// CacheInfo reports how one execution interacted with the DB's cache;
// QueryWithInfo/RunWithInfo return it so servers can expose per-request
// hit/miss/coalesced counters.
type CacheInfo struct {
	// Enabled reports whether the DB has a cache at all.
	Enabled bool
	// Hit reports the result was served from the cache without executing.
	Hit bool
	// Coalesced reports the call waited on another caller's in-flight
	// execution of the same key instead of running its own.
	Coalesced bool
}

// CacheStats is a snapshot of a DB's cache counters; see DB.CacheStats.
type CacheStats = qcache.Stats

// IsInternalError reports whether err was the engine's (or the server's)
// own fault — a panic contained at one of the runtime's recovery
// boundaries — rather than a problem with the query. Servers use it to
// answer 500 instead of 400.
func IsInternalError(err error) bool {
	var pe *fault.PanicError
	return errors.As(err, &pe)
}

// ShedCache evicts result-cache entries until the stored bytes fit
// within frac of the configured budget (0 empties the cache) and
// returns the bytes freed. It is the degradation watchdog's memory
// relief valve; a DB without a cache returns 0.
func (db *DB) ShedCache(frac float64) int64 {
	if db.cache == nil {
		return 0
	}
	return db.cache.Shed(frac)
}

// cacheSignature digests every option that can change a query's result
// rows into the cache key. alg is the resolved algorithm, not the name the
// caller typed: "", "molesp" and "MoLESP" are one behaviour and must be
// one key. TrackAllocs is deliberately absent — it only samples
// observability counters — while Parallelism is included because
// LIMIT/TOP tie-breaking may keep a different same-sized subset across
// degrees (see Options.Parallelism).
func (o Options) cacheSignature(alg core.Algorithm) string {
	return fmt.Sprintf("alg=%s to=%d par=%t k=%d",
		alg, int64(o.DefaultTimeout), o.Parallel, o.Parallelism)
}

// cacheSlot is a cached result's place in its DB's cache, made when the
// cache admits the run: the key the result is filed under, and the values
// hits built from it (Results.Memo), each charged to the entry.
type cacheSlot struct {
	cache *qcache.Cache
	key   qcache.Key
	mu    sync.Mutex                 // serializes a memo's charge and store
	memo  atomic.Pointer[[]memoItem] // copied on write; read without mu
}

type memoItem struct {
	variant uint64
	v       any
}

// memoOverhead is the fixed charge of one memo value beside its size: its
// item in the slot's list and the list's copy.
const memoOverhead = 48

// Memo returns the value build made for variant on an earlier call, or
// calls build and returns what it makes. A result held in a DB's cache
// keeps that value beside it: size is charged to the cache entry, so the
// value counts against CacheConfig.MaxBytes and leaves with the entry
// (eviction, DB.ShedCache). Any other result — an uncached run, or an
// entry already evicted or too large to grow — keeps nothing and calls
// build each time. A server memoizes its rendering of a result this way,
// on the entry's first hit rather than on the run that filled it, so an
// entry that is never asked for again carries nothing extra. Equal
// variants must build equal values; concurrent first calls may each
// build, and one value is kept.
func (r *Results) Memo(variant uint64, build func() (v any, size int64)) any {
	s := r.slot
	if s == nil {
		v, _ := build()
		return v
	}
	if v, ok := s.find(variant); ok {
		return v
	}
	v, size := build()
	s.mu.Lock()
	defer s.mu.Unlock()
	if kept, ok := s.find(variant); ok {
		return kept
	}
	if s.cache.Charge(s.key, r, size+memoOverhead) {
		var items []memoItem
		if p := s.memo.Load(); p != nil {
			items = append(items, *p...)
		}
		items = append(items, memoItem{variant, v})
		s.memo.Store(&items)
	}
	return v
}

func (s *cacheSlot) find(variant uint64) (any, bool) {
	if p := s.memo.Load(); p != nil {
		for _, m := range *p {
			if m.variant == variant {
				return m.v, true
			}
		}
	}
	return nil, false
}
