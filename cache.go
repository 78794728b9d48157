package ctpquery

import (
	"errors"
	"fmt"

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
