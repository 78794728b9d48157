package ctpquery

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"ctpquery/internal/core"
	"ctpquery/internal/engine"
	"ctpquery/internal/eql"
	"ctpquery/internal/obs"
	"ctpquery/internal/qcache"
)

// Options configures query evaluation. The zero value selects MoLESP, the
// paper's recommended algorithm, with sequential CTP evaluation and no
// default timeout.
type Options struct {
	// Algorithm names the CTP evaluation algorithm: one of Algorithms()
	// (case-insensitive). Empty selects MoLESP.
	Algorithm string

	// Parallel evaluates a query's CTPs concurrently, one goroutine each;
	// CTP searches are independent, so this is always safe.
	Parallel bool

	// Parallelism bounds the workers each CONNECT search may be sharded
	// across (the GAM-family parallel runtime): 0 keeps the sequential
	// kernel, negative selects GOMAXPROCS. No measured search repays the
	// workers yet, so the bound is not used: every search runs the
	// sequential kernel on the caller's goroutine, as at 0 (DESIGN.md §6).
	// The engine decides each clause's schedule from it once, by the rule
	// of DESIGN.md §6 (universal and skewed seed sets run the Section 4.9
	// multi-queue instead). It composes with Parallel — Parallel spreads
	// separate CONNECT clauses, Parallelism bounds one.
	// Where the runtime runs (in tests), result multisets are unchanged on
	// the paper's completeness envelope (GAM any m, ESP/LESP m = 2, MoLESP
	// m <= 3; see DESIGN.md §6), and results are returned in a canonical
	// order (score, then size, then edge set). LIMIT/TOP may keep a
	// different same-sized subset than a sequential run when results tie.
	Parallelism int

	// DefaultTimeout bounds each CTP search when the query has no TIMEOUT
	// filter (0 = unbounded). Context deadlines passed to Query/Run clamp
	// this further.
	DefaultTimeout time.Duration

	// TrackAllocs samples per-search heap allocation counts into
	// Results.SearchStats — the observability hook ctpserve exposes.
	// Concurrent queries inflate each other's counts; prefer the
	// testing.B benchmarks for precise numbers.
	TrackAllocs bool

	// Cache, when non-nil with a positive MaxBytes, caches completed
	// query results and collapses concurrent identical queries into one
	// execution; see CacheConfig. Run and Query consult it; RunStream and
	// QueryStream never do (their per-tree callback is a side effect a
	// cached result could not replay).
	Cache *CacheConfig
}

// engineOptions is the single construction site for engine.Options: Open
// and RunStream both call it, so a new facade option cannot be wired into
// one execution path and silently missed in the other. onResult — the
// streaming callback — is the only difference between the two paths.
func (o Options) engineOptions(alg core.Algorithm, onResult func(int, core.Result) bool) engine.Options {
	return engine.Options{
		Algorithm:      alg,
		DefaultTimeout: o.DefaultTimeout,
		Parallel:       o.Parallel,
		Parallelism:    o.Parallelism,
		TrackAllocs:    o.TrackAllocs,
		OnCTPResult:    onResult,
	}
}

// Algorithms lists the CTP evaluation algorithm names accepted by
// Options.Algorithm, in the paper's presentation order (Section 4):
// BFT, BFT-M, BFT-AM, GAM, ESP, MoESP, LESP, MoLESP.
func Algorithms() []string {
	as := core.Algorithms()
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	return out
}

// parseAlgorithm resolves a case-insensitive algorithm name; "" means
// MoLESP. "BFTM"/"BFTAM" are accepted for "BFT-M"/"BFT-AM".
func parseAlgorithm(name string) (core.Algorithm, error) {
	if name == "" {
		return core.MoLESP, nil
	}
	canon := strings.ReplaceAll(name, "-", "")
	for _, a := range core.Algorithms() {
		if strings.EqualFold(strings.ReplaceAll(a.String(), "-", ""), canon) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("ctpquery: unknown algorithm %q (have %s)",
		name, strings.Join(Algorithms(), ", "))
}

// QueryOption adjusts Options functionally; pass options to Open (after
// the base Options) or derive a DB with DB.With.
type QueryOption func(*Options)

// WithParallelism bounds the workers each CONNECT search may be sharded
// across; 0 restores the sequential kernel and negative values select
// GOMAXPROCS. See Options.Parallelism: the bound is not used yet.
func WithParallelism(workers int) QueryOption {
	return func(o *Options) { o.Parallelism = workers }
}

// WithAlgorithm selects the CTP evaluation algorithm by name (one of
// Algorithms(), case-insensitive).
func WithAlgorithm(name string) QueryOption {
	return func(o *Options) { o.Algorithm = name }
}

// Query is a parsed, validated EQL query. A Query is immutable and may be
// executed any number of times, concurrently, against any DB.
type Query struct {
	q *eql.Query
	// text is the canonical rendering, made once (it is the query part of
	// every cache key); src is the text the query was parsed from, which a
	// cache hit files as an alias of its entry (DB.Peek).
	text, src string
}

// ParseQuery parses and validates the textual form of an EQL query, e.g.
//
//	SELECT ?x ?w
//	WHERE {
//	  ?x citizenOf USA .
//	  CONNECT ?x France AS ?w MAX 4 .
//	}
//
// See README.md for the full language reference.
func ParseQuery(text string) (*Query, error) {
	q, err := eql.Parse(text)
	if err != nil {
		return nil, err
	}
	return &Query{q: q, text: q.String(), src: text}, nil
}

// String renders the query in the surface syntax accepted by ParseQuery,
// so ParseQuery(q.String()) round-trips.
func (q *Query) String() string { return q.text }

// Variables returns the query's projected head variables, in order.
func (q *Query) Variables() []string { return append([]string(nil), q.q.Head...) }

// DB is a queryable handle over one graph: the facade over the EQL parser
// (internal/eql), the evaluation engine (internal/engine), and the CTP
// connection-search algorithms (internal/core). A DB is cheap to create,
// holds no mutable state, and is safe for concurrent use — a server can
// share one DB (or several, with different Options) across all requests.
//
// Over a live graph (Graph.Live), every execution pins the epoch current
// at entry: the whole run — cache key, search, result rendering — sees
// that one immutable view, however many Mutate calls land meanwhile.
type DB struct {
	g    *Graph
	opts Options

	// cache is the query-result cache (nil when Options.Cache is unset);
	// optsSig is this DB's precomputed contribution to cache keys. Derived
	// DBs (WithOptions, With) share the parent's graph (and so its live
	// store) and cache instance — the options signature inside the key
	// keeps their entries apart.
	cache   *qcache.Cache
	optsSig string
}

// Open creates a DB over g. A nil opts selects the defaults (MoLESP,
// sequential, no timeout); QueryOptions apply on top of opts, e.g.
//
//	db, err := ctpquery.Open(g, nil, ctpquery.WithParallelism(4))
//
// The only error is an unknown algorithm name.
func Open(g *Graph, opts *Options, query ...QueryOption) (*DB, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	for _, qo := range query {
		qo(&o)
	}
	alg, err := parseAlgorithm(o.Algorithm)
	if err != nil {
		return nil, err
	}
	o.Algorithm = alg.String()
	db := &DB{
		g:       g,
		opts:    o,
		optsSig: o.cacheSignature(alg),
	}
	if o.Cache != nil && o.Cache.MaxBytes > 0 {
		db.cache = qcache.New(o.Cache.MaxBytes)
	}
	return db, nil
}

// Graph returns the graph the DB queries.
func (db *DB) Graph() *Graph { return db.g }

// Options returns the DB's effective options (with the algorithm name
// canonicalized).
func (db *DB) Options() Options { return db.opts }

// WithOptions returns a DB sharing this DB's graph but using opts — the
// way to serve per-request algorithm or timeout choices without reloading
// the graph. When the cache configuration is unchanged, the derived DB
// also shares this DB's cache instance, so per-request overrides hit one
// server-wide cache instead of fragmenting into per-request caches (the
// options signature inside each key keeps differently-configured results
// apart).
func (db *DB) WithOptions(opts Options) (*DB, error) {
	// Decide sharing before Open so the per-request override path never
	// constructs a fresh cache just to discard it.
	share := db.cache != nil && opts.Cache != nil && *db.opts.Cache == *opts.Cache
	openOpts := opts
	if share {
		openOpts.Cache = nil
	}
	ndb, err := Open(db.g, &openOpts)
	if err != nil {
		return nil, err
	}
	if share {
		ndb.cache = db.cache
		ndb.opts.Cache = opts.Cache
	}
	return ndb, nil
}

// With derives a DB from this one with the QueryOptions applied, e.g.
// db.With(WithParallelism(4)). Like WithOptions, it shares this DB's
// cache when the cache configuration is unchanged.
func (db *DB) With(query ...QueryOption) (*DB, error) {
	opts := db.opts
	for _, qo := range query {
		qo(&opts)
	}
	return db.WithOptions(opts)
}

// Query parses text and executes it; see Run for the execution semantics.
func (db *DB) Query(ctx context.Context, text string) (*Results, error) {
	q, err := ParseQuery(text)
	if err != nil {
		return nil, err
	}
	return db.Run(ctx, q)
}

// QueryWithInfo is Query plus the execution's CacheInfo, for servers
// surfacing per-request hit/miss/coalesced counters.
func (db *DB) QueryWithInfo(ctx context.Context, text string) (*Results, CacheInfo, error) {
	q, err := ParseQuery(text)
	if err != nil {
		return nil, CacheInfo{Enabled: db.cache != nil}, err
	}
	return db.RunWithInfo(ctx, q)
}

// Run executes q. Context cancellation is honored between evaluation
// phases and inside CTP searches and returns ctx.Err(); a context
// deadline instead clamps each CTP's time budget so an expiring deadline
// yields the partial results found so far, flagged by Results.TimedOut —
// the same semantics as the query-level TIMEOUT filter.
//
// On a DB with Options.Cache, Run serves completed results from the
// cache and collapses concurrent identical queries into one execution;
// partial (timed-out or canceled) runs are returned to their caller but
// never cached, so the next identical query re-executes. A run stopped
// by the query's own LIMIT is complete for its key and is cached.
func (db *DB) Run(ctx context.Context, q *Query) (*Results, error) {
	res, _, err := db.RunWithInfo(ctx, q)
	return res, err
}

// RunWithInfo is Run plus the execution's CacheInfo.
func (db *DB) RunWithInfo(ctx context.Context, q *Query) (*Results, CacheInfo, error) {
	// An already-canceled context returns ctx.Err() regardless of cache
	// warmth — the engine enforces this on the cold path, and a hit must
	// not silently bypass the documented cancellation contract. (An
	// expired *deadline* is different: its contract is "best results the
	// budget allows", and a complete cached answer satisfies it.)
	if ctx.Err() == context.Canceled {
		return nil, CacheInfo{Enabled: db.cache != nil}, ctx.Err()
	}
	// Pin the epoch before anything else: the cache key and the execution
	// must describe the same view, or a mutation landing between them
	// would file one epoch's answer under another's fingerprint.
	pg := db.g.Snapshot()
	if db.cache == nil {
		res, err := db.runUncached(ctx, pg, q)
		return res, CacheInfo{}, err
	}
	info := CacheInfo{Enabled: true}
	key := db.cacheKey(pg, q.text)
	// Cache span: covers the lookup, a coalesced waiter's wait on the
	// leader, or the leader's own execution (whose engine.eval span nests
	// under it). Role attrs are attached once the outcome is known.
	cacheSpan := obs.FromContext(ctx).Child("cache")
	// End is idempotent; the defer is the panic backstop (a contained
	// panic inside Do must not leak the span), the explicit Ends below
	// stamp the accurate duration on every ordinary path.
	defer cacheSpan.End()
	ctx = obs.With(ctx, cacheSpan)
	v, hit, coalesced, err := db.cache.Do(ctx, key, func() (any, int64, bool, error) {
		res, err := db.runUncached(ctx, pg, q)
		if err != nil {
			return nil, 0, false, err
		}
		// Admission: only complete answers may be cached. A timed-out
		// result is a valid subset for this caller, but the time budget
		// is deliberately not part of the key, so a later request might
		// have afforded the full run — serving the partial would
		// silently drop answers. A LIMIT-truncated run is different:
		// the LIMIT lives in the canonical query text, so every future
		// request of this key wants exactly that bound — the run IS the
		// complete answer, and caching it keeps the kept subset stable
		// across requests. Truncation the query's own limits cannot
		// explain stays out (defensively — the streaming callback, the
		// other truncation source, bypasses the cache entirely). A
		// post-run canceled context means we cannot even be sure the
		// flags are trustworthy.
		admit := !res.TimedOut() && ctx.Err() == nil &&
			(!res.Truncated() || queryHasLimit(q))
		if admit {
			res.slot = &cacheSlot{cache: db.cache, key: key}
		}
		return res, res.ApproxSize(), admit, nil
	})
	info.Hit, info.Coalesced = hit, coalesced
	cacheSpan.AttrBool("hit", hit).AttrBool("coalesced", coalesced)
	if err != nil {
		// A waiter whose own deadline expired while queued behind the
		// leader must still get Run's deadline semantics — partial
		// results, never an error. Only the waiter path can surface
		// DeadlineExceeded (the engine turns an expiring deadline into
		// TimedOut results, and cancellation into context.Canceled), so
		// run directly: the engine clamps the spent budget and returns
		// immediately with whatever that allows.
		if errors.Is(err, context.DeadlineExceeded) {
			res, rerr := db.runUncached(ctx, pg, q)
			cacheSpan.End()
			return res, CacheInfo{Enabled: true}, rerr
		}
		cacheSpan.Error(err).End()
		return nil, info, err
	}
	cacheSpan.End()
	return v.(*Results), info, nil
}

// queryHasLimit reports whether q carries a result bound in its own
// text — a CTP LIMIT filter or the top-level solution modifier — i.e.
// whether a Truncated flag is attributable to the query itself rather
// than to the caller's run.
func queryHasLimit(q *Query) bool {
	if q.q.Limit > 0 {
		return true
	}
	for _, c := range q.q.CTPs {
		if c.Filters.Limit > 0 {
			return true
		}
	}
	return false
}

// runUncached executes q against pg, the view pinned at entry. The
// Results keep pg, so rendering rows and trees later reads the same epoch
// the search ran on. Engines are two-field structs — building one per run
// costs nothing and removes any stale-graph state from the DB.
func (db *DB) runUncached(ctx context.Context, pg *Graph, q *Query) (*Results, error) {
	eng := engine.New(pg.view(), db.opts.engineOptions(mustAlgorithm(db.opts.Algorithm), nil))
	res, err := eng.ExecuteContext(ctx, q.q)
	if err != nil {
		return nil, err
	}
	return newResults(pg, q.q, res), nil
}

// Peek reports whether a complete cached result for q is already stored,
// returning it without executing, waiting, or coalescing with in-flight
// runs. ok is false when the DB has no cache or the entry is absent — the
// caller then proceeds through Run/RunWithInfo as usual. Servers peek
// before arming a deadline or queuing, so warm requests are answered in
// microseconds instead of waiting behind analytical work; a successful
// peek counts as a cache hit in CacheStats.
//
// A hit also files the text q was parsed from as an alias of the entry,
// charged to it, so PeekText finds the entry from that text without
// parsing it again.
func (db *DB) Peek(q *Query) (*Results, bool) {
	if db.cache == nil {
		return nil, false
	}
	key := db.cacheKey(db.g.Snapshot(), q.text)
	v, ok := db.cache.Peek(key)
	if !ok {
		return nil, false
	}
	if q.src != q.text {
		alias := key
		alias.Query = q.src
		db.cache.Alias(alias, key, v)
	}
	return v.(*Results), true
}

// PeekText is Peek for a query text, without parsing it: it finds an
// entry whose canonical text is text, or one an earlier Peek filed text
// under as an alias. ok false means neither (the text may still be
// cached under its canonical form): parse it and Peek. Aliases need no
// invalidation, because the graph fingerprint is part of their key, and
// they are evicted with their entry.
func (db *DB) PeekText(text string) (*Results, bool) {
	if db.cache == nil {
		return nil, false
	}
	v, ok := db.cache.Peek(db.cacheKey(db.g.Snapshot(), text))
	if !ok {
		return nil, false
	}
	return v.(*Results), true
}

// cacheKey is the key of a query with canonical (or alias) text over the
// view pg.
func (db *DB) cacheKey(pg *Graph, text string) qcache.Key {
	return qcache.Key{Graph: pg.Fingerprint(), Query: text, Opts: db.optsSig}
}

// CacheStats returns a snapshot of the DB's query-result cache counters;
// ok is false when the DB has no cache. Derived DBs (WithOptions, With)
// report the shared parent cache.
func (db *DB) CacheStats() (CacheStats, bool) {
	if db.cache == nil {
		return CacheStats{}, false
	}
	return db.cache.Stats(), true
}

// QueryStream parses text and executes it, streaming connecting trees;
// see RunStream.
func (db *DB) QueryStream(ctx context.Context, text string, fn StreamFunc) (*Results, error) {
	q, err := ParseQuery(text)
	if err != nil {
		return nil, err
	}
	return db.RunStream(ctx, q, fn)
}

// StreamFunc receives connecting trees as a search finds them. ctp is the
// index of the CONNECT clause (in query order) the tree answers.
// Returning false stops that clause's search; the trees seen so far still
// flow into the final Results (flagged by Results.Truncated).
type StreamFunc func(ctp int, t *Tree) bool

// RunStream executes q like Run, additionally invoking fn on each
// connecting tree the moment the search finds it — before joins, LIMIT,
// or TOP-k trimming — so callers can render connections as they surface
// instead of waiting for the full enumeration. When the DB has
// Options.Parallel set and the query has several CONNECT clauses, fn may
// be called from several goroutines at once and must be safe for that.
// RunStream never consults the DB's cache: a cached result could not
// replay the per-tree callback.
func (db *DB) RunStream(ctx context.Context, q *Query, fn StreamFunc) (*Results, error) {
	pg := db.g.Snapshot()
	eng := engine.New(pg.view(), db.opts.engineOptions(
		mustAlgorithm(db.opts.Algorithm),
		func(ctp int, r core.Result) bool {
			return fn(ctp, &Tree{g: pg, t: r.Tree})
		}))
	res, err := eng.ExecuteContext(ctx, q.q)
	if err != nil {
		return nil, err
	}
	return newResults(pg, q.q, res), nil
}

// Explain returns the query plan the engine would run for q — the BGP
// access paths and join order, the derived CTP seed sets, and the chosen
// search configuration — without executing it. On a live graph the plan
// reflects the current epoch's statistics.
func (db *DB) Explain(q *Query) (string, error) {
	eng := engine.New(db.g.view(), db.opts.engineOptions(mustAlgorithm(db.opts.Algorithm), nil))
	return eng.Explain(q.q)
}

// Mutate applies one atomic batch to the DB's live graph and publishes
// the next epoch; see Graph.Mutate. Queries started before the call keep
// their pinned epoch; queries started after see the new one (and miss the
// cache, whose keys carry the per-epoch fingerprint). It fails on a DB
// over a frozen graph.
func (db *DB) Mutate(b Batch) (MutateResult, error) { return db.g.Mutate(b) }

// Snapshot returns a DB pinned to the current epoch: its queries answer
// from exactly this epoch's content forever, regardless of later Mutate
// calls on the parent. The snapshot DB shares the parent's cache, so
// queries already answered at this epoch are still warm. On a DB over a
// frozen graph it returns the receiver.
func (db *DB) Snapshot() *DB {
	if !db.g.IsLive() {
		return db
	}
	nd := *db
	nd.g = db.g.Snapshot()
	return &nd
}

// mustAlgorithm resolves a name already validated by Open.
func mustAlgorithm(name string) core.Algorithm {
	a, err := parseAlgorithm(name)
	if err != nil {
		panic(err)
	}
	return a
}
