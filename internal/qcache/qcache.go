// Package qcache is the query-result cache of the serving path: a
// concurrency-safe, byte-budgeted LRU fronted by singleflight admission.
//
// The cache exploits two invariants of the surrounding system. First, a
// graph.Graph is frozen at Build time and carries a content fingerprint,
// so (fingerprint, canonical query text, effective engine options) fully
// determines a complete query result — there is nothing to invalidate,
// ever; a new graph is a new fingerprint and the old entries simply age
// out of the LRU. Second, the EQL printer round-trips
// (ParseQuery(q.String()) == q), so the canonical key text is free.
//
// Singleflight is what actually protects a server under thundering-herd
// load: N concurrent identical queries collapse into one engine execution
// and N-1 waiters. Admission is the caller's decision per execution —
// partial results (timed out, canceled, or truncated for reasons the
// query's own text cannot explain) must never be cached, because serving
// a stale partial as if it were the full answer would be a correctness
// bug, not a performance one.
//
// An entry may grow after admission. A caller that derives something from
// a stored value on a hit (a rendering of it, an alias of its query text)
// charges it to the entry with Charge or Alias: the bytes count against
// the same budget, and they leave with the entry when it is evicted or
// shed. Nothing is charged on the miss, so an entry that is never hit
// costs what it did at admission.
package qcache

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"ctpquery/internal/fault"
)

// probeLead fires inside every singleflight leader execution (inert
// unless armed via internal/fault), so chaos tests can crash a leader
// without cooperating exec functions.
var probeLead = fault.Register("qcache.singleflight.lead")

// Key identifies one cacheable execution. Two executions with equal Keys
// must produce interchangeable results; see the package comment for why
// the three components suffice.
type Key struct {
	// Graph is the graph's content fingerprint (graph.Graph.Fingerprint).
	Graph uint64
	// Query is the canonical query text (Query.String()).
	Query string
	// Opts digests every engine option that can change the result.
	Opts string
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 // lookups served from a stored entry
	Misses    int64 // lookups that executed (singleflight leaders)
	Coalesced int64 // lookups that waited on a leader instead of executing
	Evictions int64 // entries dropped by the byte budget or by Shed
	Rejected  int64 // executions whose result was not admitted
	Entries   int   // stored entries
	Bytes     int64 // stored payload bytes (caller-estimated)
	MaxBytes  int64 // configured budget
}

// Cache is a byte-budgeted LRU of query results with singleflight
// admission. All methods are safe for concurrent use.
type Cache struct {
	maxBytes int64

	mu       sync.Mutex
	ll       *list.List // front = most recently used; values are *entry
	entries  map[Key]*list.Element
	aliases  map[Key]*list.Element // second keys of stored entries (Alias)
	inflight map[Key]*call
	bytes    int64

	hits, misses, coalesced, evictions, rejected int64
}

// entry is one stored result. size includes what Charge and Alias added
// after admission; aliases are removed with the entry.
type entry struct {
	key     Key
	val     any
	size    int64
	aliases []Key
}

// call is one in-flight execution; waiters block on done. admitted
// records whether the leader's result was cacheable: waiters share only
// admitted results — an inadmissible (partial) result belongs to the
// leader alone — so otherwise waiters retry. The one exception is a
// panicking leader (panicked set): its waiters receive the contained
// error instead of retrying, because re-executing the very call that
// just crashed would turn one panic into N.
type call struct {
	done     chan struct{}
	val      any
	err      error
	admitted bool
	panicked bool
	waiters  atomic.Int32 // callers that blocked on done (test observability)
}

// New creates a cache holding at most maxBytes of caller-estimated
// payload (maxBytes must be > 0).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		panic("qcache: maxBytes must be > 0")
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[Key]*list.Element),
		aliases:  make(map[Key]*list.Element),
		inflight: make(map[Key]*call),
	}
}

// Do returns the result for key, executing exec at most once across all
// concurrent callers of the same key.
//
// exec returns the value, its approximate payload size in bytes, and
// whether the value may be admitted to the cache; a partial result must
// return admit=false so the next request re-executes instead of being
// served a stale partial.
//
// The flags report how this call was served: hit means a stored entry,
// coalesced means the call waited on another caller's execution and
// received its result. Waiters share ONLY admitted results — a leader's
// partial (admit=false) result is returned to the leader alone, because
// a waiter's own budget might have afforded the complete answer; such
// waiters retry, re-entering Do, where the first becomes the next
// leader. Likewise a waiter never inherits a leader's ordinary error
// (typically the leader's own context being canceled): it retries, so
// one request's cancellation cannot poison the others. The exception is
// a leader that PANICKED: its waiters receive the contained
// *fault.PanicError promptly instead of re-executing the call that just
// crashed. A waiter whose own ctx is canceled stops waiting and returns
// ctx.Err(). A caller that retried and then executed reports
// coalesced=false: it did the work itself.
func (c *Cache) Do(ctx context.Context, key Key, exec func() (val any, size int64, admit bool, err error)) (val any, hit, coalesced bool, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			c.mu.Unlock()
			return el.Value.(*entry).val, true, false, nil
		}
		if cl, ok := c.inflight[key]; ok {
			cl.waiters.Add(1)
			c.mu.Unlock()
			select {
			case <-cl.done:
				if cl.err == nil && cl.admitted {
					c.mu.Lock()
					c.coalesced++
					c.mu.Unlock()
					return cl.val, false, true, nil
				}
				if cl.panicked {
					// The leader panicked. Fail the waiters promptly with
					// the contained error rather than retrying: the same
					// execution would likely crash again, once per waiter.
					// Nothing was stored, so the NEXT identical query
					// re-executes cleanly.
					c.mu.Lock()
					c.coalesced++
					c.mu.Unlock()
					return nil, false, true, cl.err
				}
				// The leader failed or produced a partial result this
				// waiter must not be served. Retry; the loop makes this
				// waiter the next leader (or a waiter on one).
				if ctx.Err() != nil {
					return nil, false, true, ctx.Err()
				}
				continue
			case <-ctx.Done():
				return nil, false, true, ctx.Err()
			}
		}
		cl := &call{done: make(chan struct{})}
		c.inflight[key] = cl
		c.misses++
		c.mu.Unlock()

		return c.lead(key, cl, exec)
	}
}

// lead runs the leader's execution for key. The deferred cleanup runs
// even if exec panics, so a panicking engine cannot wedge the key: the
// in-flight slot is always released and done always closed. A panic is
// contained here into a *fault.PanicError returned to the leader AND
// its waiters (see call.panicked); nothing is stored, so the entry is
// never poisoned and the next identical query re-executes.
func (c *Cache) lead(key Key, cl *call, exec func() (val any, size int64, admit bool, err error)) (val any, hit, coalesced bool, err error) {
	var size int64
	var admit, completed bool
	defer func() {
		if !completed && err == nil {
			if rec := recover(); rec != nil {
				cl.panicked = true
				err = fault.Recovered("qcache: singleflight leader", rec)
			}
		}
		cl.val, cl.err, cl.admitted = val, err, admit
		c.mu.Lock()
		delete(c.inflight, key)
		switch {
		case !completed || err != nil:
			// Panicked or failed: nothing to store or count.
		case admit:
			c.addLocked(key, val, size)
		default:
			c.rejected++
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	probeLead.Hit()
	val, size, admit, err = exec()
	completed = true
	return val, false, false, err
}

// Peek returns the stored value for key without executing or waiting on
// anything. key may also be an alias of a stored entry (see Alias). A
// successful peek counts as a hit (it IS a serve from the cache —
// admission control uses it to let warm requests bypass the wait queue
// entirely); a miss counts nothing, because the caller's follow-up Do
// accounts for how the request was ultimately served.
func (c *Cache) Peek(key Key) (val any, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		if el, ok = c.aliases[key]; !ok {
			return nil, false
		}
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*entry).val, true
}

// AliasOverhead is the fixed charge of one alias on top of its query
// text: its map slot and its place in the entry's alias list.
const AliasOverhead = 96

// maxAliases bounds the aliases of one entry, so texts that differ only in
// spelling cannot grow one entry at the expense of the rest of the cache.
const maxAliases = 4

// Charge adds n bytes to the entry stored under key, provided it still
// holds val (compared with ==: the entry a caller was served, not a later
// one under the same key), marks it most recently used, and evicts from the LRU back
// until the budget holds. It reports false, charging nothing, when the
// entry is gone or would outgrow the whole budget; the caller then keeps
// nothing on the entry's behalf.
func (c *Cache) Charge(key Key, val any, n int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.holding(key, val)
	if !ok || el.Value.(*entry).size+n > c.maxBytes {
		return false
	}
	c.growLocked(el, n)
	return true
}

// Alias files alias as a second key of the entry stored under key, so
// Peek(alias) finds it, provided the entry still holds val. The alias is
// charged to the entry (its query text plus AliasOverhead) and removed
// with it. It reports whether alias now names the entry.
func (c *Cache) Alias(alias, key Key, val any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.holding(key, val)
	if !ok {
		return false
	}
	if cur, ok := c.aliases[alias]; ok {
		return cur == el
	}
	e := el.Value.(*entry)
	n := int64(len(alias.Query)) + AliasOverhead
	if len(e.aliases) == maxAliases || e.size+n > c.maxBytes {
		return false
	}
	e.aliases = append(e.aliases, alias)
	c.aliases[alias] = el
	c.growLocked(el, n)
	return true
}

// holding returns the element stored under key if its value is val.
func (c *Cache) holding(key Key, val any) (*list.Element, bool) {
	el, ok := c.entries[key]
	if !ok || el.Value.(*entry).val != val {
		return nil, false
	}
	return el, true
}

// growLocked adds n bytes to el's entry and evicts from the back until the
// budget holds. el moves to the front first, so the eviction cannot reach
// it: its own size is within the budget.
func (c *Cache) growLocked(el *list.Element, n int64) {
	c.ll.MoveToFront(el)
	el.Value.(*entry).size += n
	c.bytes += n
	c.evictLocked()
}

// get returns the stored value for key without executing anything. It is
// a test seam, deliberately unexported: it does not count hits, so a
// production caller adopting it would silently skew the operator-facing
// hit rate — Do is the read API.
func (c *Cache) get(key Key) (val any, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Shed evicts LRU entries until the stored bytes fit within frac of the
// byte budget (frac 0 empties the cache) and returns the bytes freed.
// The degradation watchdog calls it under memory pressure; in-flight
// executions are unaffected.
func (c *Cache) Shed(frac float64) int64 {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	target := int64(float64(c.maxBytes) * frac)
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for c.bytes > target {
		back := c.ll.Back()
		if back == nil {
			break
		}
		freed += back.Value.(*entry).size
		c.removeLocked(back)
		c.evictions++
	}
	return freed
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Rejected:  c.rejected,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
	}
}

// EntryOverhead is the fixed per-entry charge against the byte budget,
// approximating the entry struct, its list element, and its map bucket
// share. The key strings are charged at their length on top, so a
// workload of huge query texts with tiny results cannot blow past the
// operator's memory bound uncounted.
const EntryOverhead = 160

// addLocked stores val under key at the LRU front and evicts from the
// back until the budget holds. The charged size is the caller-estimated
// payload plus the key strings plus EntryOverhead; entries larger than
// the whole budget are rejected rather than evicting everything for one
// entry.
func (c *Cache) addLocked(key Key, val any, size int64) {
	if size < 0 {
		size = 0
	}
	size += int64(len(key.Query)) + int64(len(key.Opts)) + EntryOverhead
	if size > c.maxBytes {
		c.rejected++
		return
	}
	if el, ok := c.entries[key]; ok {
		// Sequential re-admission after a non-admitted run raced with
		// another leader; replace the stored value.
		c.removeLocked(el)
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, val: val, size: size})
	c.bytes += size
	c.evictLocked()
}

// evictLocked evicts from the LRU back until the budget holds.
func (c *Cache) evictLocked() {
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// removeLocked unlinks one entry and its aliases and returns its bytes to
// the budget.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	for _, a := range e.aliases {
		delete(c.aliases, a)
	}
	c.bytes -= e.size
}
