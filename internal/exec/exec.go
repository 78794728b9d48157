// Package exec is the parallel CTP search runtime: it schedules the
// GAM-family kernel (core.Kernel: GAM, ESP, MoESP, LESP, MoLESP) across K
// workers instead of core's caller-goroutine priority loop. The
// algorithms live once, in core; this package holds what a sharded
// schedule needs around them.
//
// No production search runs here: core.Sharded sends a search to the
// runtime only under a test hook, because on every search measured so
// far two workers either lose to the caller's goroutine or gain only on
// searches far larger than any benchmark workload runs (DESIGN.md §6).
//
// # Architecture
//
// The search space is sharded by tree root: worker owner(n) (a hash of n
// modulo K) owns every candidate tree rooted at node n, and runs one
// core.Kernel over them. That single decision localizes almost all of
// the search's state inside the kernels:
//
//   - the rooted dedup history (GAM identity, LESP exemption) is keyed by
//     root, so each kernel keeps a private, unsynchronized core.SigSet;
//   - TreesRootedIn — the merge index — is keyed by root, so Merge, the
//     only binary operator, always finds both operands on one worker and
//     runs without any locking;
//   - the LESP seed signatures ss_n are keyed by node and partition the
//     same way.
//
// Everything else reaches a kernel through core.Scheduler, which each
// worker implements. Work flows between shards through one inbox per
// worker: a tree's Grow steps (e, far endpoint) are split at push time by
// the owner of each step's new root, and each remote owner receives its
// part as one task — a batch per (tree, destination), not a message per
// op. Mo re-rootings ship the constructed tree to the new root's owner.
// A worker's grow queue is touched by its owner only; a worker with
// nothing queued parks until a peer's delivery wakes it.
// Only two structures remain shared: the ESP edge-set history, an
// XOR-signature-partitioned array of lock-striped core.SigSet shards
// (the package's only concurrent dedup entry point), and the result
// collector, a mutex-serialized sink that orders its output
// deterministically at the end.
//
// # Determinism and equivalence
//
// Workers race only on first-writer-wins deduplication, so the set of
// explored provenances can differ between schedules. The reported result
// multiset does not, on the paper's completeness envelope: GAM for any m,
// ESP/LESP for m = 2, and MoESP/MoLESP for m <= 3 (and for every result
// covered by Property 9) are complete under ANY exploration order
// (Section 4.8), and every kernel is sound, so any schedule — sequential
// or parallel — reports exactly the reference result set. The equivalence
// property test asserts this against the sequential kernel on random
// graphs and queries. Outside the envelope the algorithms are incomplete
// and the missed subset is schedule-dependent (as it already is between
// two sequential exploration orders). Results are returned in a canonical
// order (score desc, then size, then edge-set key), so a parallel run's
// output is deterministic given the result set; LIMIT and TOP-k trim by
// that order's race winners and are the one place parallel runs may keep
// a different (same-sized) subset than sequential runs.
package exec

import (
	"sync"
	"sync/atomic"
	"time"

	"ctpquery/internal/core"
	"ctpquery/internal/fault"
	"ctpquery/internal/graph"
	"ctpquery/internal/hash64"
	"ctpquery/internal/tree"
)

func init() { core.RegisterParallelKernel(search) }

// Probe points compiled into the runtime's hot paths (inert unless armed
// via internal/fault). The chaos suite panics each of them in turn and
// asserts the search surfaces an error instead of deadlocking the
// pending-count termination protocol. Probes sit outside every critical
// section: a fault fired at one never unwinds past a held lock.
var (
	probeWorkerLoop   = fault.Register("exec.worker.loop")
	probeProcessOp    = fault.Register("exec.worker.process_op")
	probeProcessTree  = fault.Register("exec.worker.process_tree")
	probeProcessMo    = fault.Register("exec.worker.process_mo")
	probeDrainMail    = fault.Register("exec.worker.drain_mail")
	probeCollectorAdd = fault.Register("exec.collector.add")
)

// maxWorkers caps Options.Parallelism; beyond the hardware's core count
// extra workers only add exchange traffic.
const maxWorkers = 256

// search evaluates the CTP across opts.Parallelism workers. It is reached
// only through core.Search, which validates the inputs, resolves the
// algorithm to one of the GAM family and routes here what core.Sharded
// selects.
func search(g *graph.Graph, seeds []core.SeedSet, opts core.Options) (*core.ResultSet, *core.Stats, error) {
	st := statePool.Get()
	rs, stats, err := st.search(g, seeds, opts)
	// A failed run's state may be half-written: the GC takes it.
	if err == nil && len(st.workers) <= maxPooledWorkers {
		statePool.Put(st)
	}
	return rs, stats, err
}

// search runs one search on st — new, or emptied by the last one — and,
// unless it fails, leaves it emptied.
func (st *runState) search(g *graph.Graph, seeds []core.SeedSet, opts core.Options) (*core.ResultSet, *core.Stats, error) {
	k := opts.Parallelism
	if k < 1 {
		k = 1
	}
	if k > maxWorkers {
		k = maxWorkers
	}
	start := time.Now()

	r := newRun(st, g, seeds, opts, k)
	if err := r.seedSafely(); err != nil {
		return nil, nil, err
	}
	r.startWorkers()
	r.wg.Wait()
	if pe := r.panicErr.Load(); pe != nil {
		// A worker panicked. Its shard's state (dedup history, merge
		// index, possibly a half-built tree) is unreliable, so the whole
		// search fails with a structured error rather than reporting a
		// silently-partial result set.
		r.drainPoisoned()
		return nil, nil, pe
	}

	stats := r.assembleStats(k)
	stats.Duration = time.Since(start)
	rs := r.coll.finish()
	stats.Results = len(rs.Results)
	r.release()
	return rs, stats, nil
}

// run is the shared state of one parallel search.
type run struct {
	setup *core.Setup // what every worker's kernel shares, read-only
	opts  core.Options
	k     int

	*runState
	coll *collector

	pending   atomic.Int64 // queued + in-flight tasks; 0 = search complete
	panicErr  atomic.Pointer[fault.PanicError]
	stop      atomic.Bool
	stopOnce  sync.Once
	stopCh    chan struct{}
	timedOut  atomic.Bool
	truncated atomic.Bool
	kept      atomic.Int64 // total kept, tracked only under MaxTrees
	wg        sync.WaitGroup
}

// runState is the part of a run the next one reuses: the workers with
// their kernels (arena, tables), queues and inboxes, the shared history
// and the result collector. release empties it under a retention bound.
type runState struct {
	workers []*worker
	hist    shardedSigSet
	results core.ResultCollector
}

var statePool core.Pool[runState]

// Retention: a state with more workers than maxPooledWorkers is not kept;
// each kernel bounds its own arena and tables, core.Emptied the queues
// and inbox buffers.
const maxPooledWorkers = 8

func newRun(st *runState, g *graph.Graph, seeds []core.SeedSet, opts core.Options, k int) *run {
	if len(st.workers) != k {
		st.workers = make([]*worker, k)
		for i := range st.workers {
			st.workers[i] = &worker{id: i, wake: make(chan struct{}, 1), k: new(core.Kernel)}
		}
	}
	r := &run{
		setup:    core.NewSetup(g, seeds, opts),
		opts:     opts,
		k:        k,
		runState: st,
		stopCh:   make(chan struct{}),
	}
	r.setup.StartCollector(&st.results)
	r.coll = newCollector(&st.results, opts)
	for _, w := range r.workers {
		w.r = r
		w.k.Start(r.setup, w, probeProcessTree, probeProcessMo)
	}
	return r
}

// release empties the state of a run that ended cleanly — every worker
// has exited: no tree, graph or callback of this search stays reachable
// from it.
func (r *run) release() {
	for _, w := range r.workers {
		w.k.Reset()
		w.q.Reset()
		w.steps.Reset(core.KeepSteps)
		*w = worker{id: w.id, wake: w.wake, k: w.k, q: w.q, steps: w.steps, ends: w.ends,
			in: inbox{items: core.Emptied(w.in.items), free: core.Emptied(w.in.free)}}
	}
	for i := range r.hist.shards {
		r.hist.shards[i].set.Reset()
	}
	r.results.Reset()
}

// owner shards nodes across workers. The hash spreads ID-adjacent nodes
// (which dense loaders create in clusters) across different shards.
func (r *run) owner(n graph.NodeID) int {
	if r.k == 1 {
		return 0
	}
	return int(hash64.Mix(uint64(uint32(n))) % uint64(r.k))
}

// seedInits deposits each Init tree in its owner's inbox before any
// worker starts, so pending is exact from the first tick.
func (r *run) seedInits() {
	// Worker 0's arena holds the Init trees; no worker runs yet.
	r.workers[0].k.Inits(func(t *tree.Tree) bool {
		r.pending.Add(1)
		r.deposit(r.owner(t.Root), task{kind: taskInit, t: t})
		return true
	})
}

// seedSafely runs the coordinator's seeding behind its own containment
// boundary: no worker has started yet, so a panic here (before the
// termination protocol is live) simply fails the search.
func (r *run) seedSafely() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fault.Recovered("exec: seeding", rec)
		}
	}()
	r.seedInits()
	return nil
}

// fail records the first containment error and stops the search. The
// pending count can no longer reach zero honestly (the panicking
// worker's in-flight task never retires), so failure stops the run
// directly instead of waiting on the termination protocol.
func (r *run) fail(pe *fault.PanicError) {
	r.panicErr.CompareAndSwap(nil, pe)
	r.shutdown()
}

// drainPoisoned empties every inbox and zeroes the pending count after a
// failed search. All workers have exited by now. Undelivered trees may be
// mid-mutation, so they — and the whole state of the run — are dropped
// for the GC; releasing the pending count keeps the termination invariant
// (pending == 0 after shutdown) intact for any observer.
func (r *run) drainPoisoned() {
	for _, w := range r.workers {
		w.in.mu.Lock()
		w.in.items, w.in.free = nil, nil
		w.in.mu.Unlock()
	}
	r.pending.Store(0)
}

func (r *run) startWorkers() {
	r.wg.Add(r.k)
	for _, w := range r.workers {
		go w.loop()
	}
}

// deposit appends a task to worker to's inbox and wakes it. Workers never
// deposit to themselves (local work takes the direct path); the
// coordinator deposits the initial seeding.
func (r *run) deposit(to int, tk task) {
	w := r.workers[to]
	w.in.mu.Lock()
	w.in.items = append(w.in.items, tk)
	w.in.mu.Unlock()
	w.mail.Add(1)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// shutdown ends the search exactly once: subsequent work is skipped and
// parked workers wake to exit.
func (r *run) shutdown() {
	r.stopOnce.Do(func() {
		r.stop.Store(true)
		close(r.stopCh)
	})
}

func (r *run) stopped() bool { return r.stop.Load() }

// finishTask retires one unit of pending work; the last one ends the
// search.
func (r *run) finishTask() {
	if r.pending.Add(-1) == 0 {
		r.shutdown()
	}
}

// assembleStats merges the per-kernel counters into one core.Stats, the
// same quantities a caller-goroutine search reports. PeakTrees sums the
// per-worker high-water marks (an upper bound on the instantaneous
// total); PeakQueueLen is the max over workers.
func (r *run) assembleStats(k int) *core.Stats {
	st := &core.Stats{Parallelism: k}
	for _, w := range r.workers {
		ws := &w.k.Stats
		st.Inits += ws.Inits
		st.Grows += ws.Grows
		st.Merges += ws.Merges
		st.MoTrees += ws.MoTrees
		st.Created += ws.Created
		st.Pruned += ws.Pruned
		st.Spared += ws.Spared
		st.QueuePops += ws.QueuePops
		st.Recycled += ws.Recycled
		st.PeakTrees += ws.PeakTrees
		if ws.PeakQueueLen > st.PeakQueueLen {
			st.PeakQueueLen = ws.PeakQueueLen
		}
		st.Workers = append(st.Workers, core.WorkerStats{
			Ops:     w.ops,
			Kept:    ws.Kept(),
			Shipped: w.shipped,
			BusyNS:  w.busyNS,
			WallNS:  w.wallNS,
		})
	}
	st.TimedOut = r.timedOut.Load()
	st.Truncated = r.truncated.Load()
	return st
}
