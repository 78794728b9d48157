package exec

import (
	"fmt"
	goruntime "runtime"
	"sync/atomic"
	"time"

	"ctpquery/internal/core"
	"ctpquery/internal/fault"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// worker schedules one shard of the search: every tree rooted at a node
// it owns is deduplicated, indexed, merged, and grown by its core.Kernel,
// whose root-keyed state is strictly worker-private. This file is only
// scheduling — the loop, the mail drain, and the core.Scheduler methods
// through which the kernel reaches the run.
type worker struct {
	r    *run
	id   int
	in   inbox         // exchange tasks from every peer
	wake chan struct{} // buffered(1): senders signal new inbox items
	mail atomic.Int64  // items waiting in in

	q   core.OpHeap // grow ops for trees this worker will own; owner-only
	seq uint64      // local FIFO tiebreak

	k *core.Kernel // this shard; its Stats merge into the search totals

	ops     int   // ops + tasks processed
	shipped int   // tasks routed to other shards
	busyNS  int64 // thread CPU time in loop (cputime_linux.go)
	wallNS  int64 // wall time in loop; with wallStart, lets the
	// tracer reconstruct each worker's lifetime as a span after the fact
	wallStart time.Time
}

// loop drains the inbox and the local queue, and parks when both are
// empty. It exits when the run stops — either the pending-task count hit
// zero (search complete) or a filter (TIMEOUT, LIMIT, MaxTrees,
// cancellation) ended the search early.
func (w *worker) loop() {
	defer w.r.wg.Done()
	// Containment boundary: a panic anywhere in this worker's slice of
	// the kernel is converted to a run-level error and the search is
	// stopped, so the other workers wake from their parks and exit
	// instead of waiting forever on a pending count that can no longer
	// reach zero. Registered after wg.Done so Done still runs last.
	defer func() {
		if rec := recover(); rec != nil {
			w.r.fail(fault.Recovered(fmt.Sprintf("exec: worker %d", w.id), rec))
		}
	}()
	if cpuTimeSupported {
		// Pin to an OS thread so the kernel's per-thread CPU clock
		// attributes exactly this worker's work — what BusyNS reports as
		// exec.busy_share, the busy_ms fields and
		// ctp_exec_worker_busy_seconds_total.
		goruntime.LockOSThread()
		defer goruntime.UnlockOSThread()
	}
	cpu0 := threadCPUNanos()
	w.wallStart = time.Now()
	defer func() {
		w.busyNS = threadCPUNanos() - cpu0
		w.wallNS = int64(time.Since(w.wallStart))
	}()

	for !w.r.stopped() {
		probeWorkerLoop.Hit()
		progress := w.drainMail()
		if len(w.q) > 0 {
			w.ops++
			probeProcessOp.Hit()
			w.k.Grow(w.q.Pop())
			w.r.finishTask()
			continue
		}
		if progress {
			continue
		}
		select {
		case <-w.wake:
		case <-w.r.stopCh:
		}
	}
}

// drainMail processes every task in the inbox and reports whether any was
// found. The atomic mail counter skips the lock on the (hot) iterations
// where nothing arrived: senders increment it after depositing and before
// signaling wake, so a worker that parks on an empty counter is always
// woken into a visible non-zero one. Shipped grow ops join the local
// queue (their pending unit retires when popped); trees are committed
// immediately.
func (w *worker) drainMail() bool {
	if w.mail.Load() == 0 {
		return false
	}
	in := &w.in
	in.mu.Lock()
	items := in.items
	in.items, in.free = in.free, nil // recycled capacity from the previous drain
	in.mu.Unlock()
	w.mail.Add(int64(-len(items)))
	for _, tk := range items {
		if w.r.stopped() {
			return true
		}
		probeDrainMail.Hit()
		switch tk.kind {
		case taskGrowOp:
			w.push(core.GrowOp{T: tk.t, E: tk.e, Prio: tk.prio})
			w.k.NoteQueueLen()
		case taskInit:
			w.ops++
			w.k.Admit(tk.t)
			w.r.finishTask()
		case taskMo:
			w.ops++
			w.k.CommitMo(tk.t)
			w.r.finishTask()
		}
	}
	// Hand the drained buffer back for the senders' next burst; only this
	// receiver touches free, so no lock is needed. Clear the entries first
	// so the recycled array does not pin processed trees.
	clear(items)
	in.free = items[:0]
	return len(items) > 0
}

// push queues a grow op on this worker, behind everything already there
// at the same priority.
func (w *worker) push(op core.GrowOp) {
	w.seq++
	op.Seq = w.seq
	w.q.Push(op)
}

// The core.Scheduler methods: the kernel's view of the run.

func (w *worker) Stopped() bool { return w.r.stopped() }

// Timeout records a TIMEOUT/cancellation stop (Section 2 semantics: the
// results so far remain valid).
func (w *worker) Timeout() {
	w.r.timedOut.Store(true)
	w.r.shutdown()
}

// Truncate records a LIMIT/MaxTrees/callback stop.
func (w *worker) Truncate() {
	w.r.truncated.Store(true)
	w.r.shutdown()
}

// Claim goes to the shared ESP history: the sharded set's add is atomic,
// so exactly one worker keeps each edge set.
func (w *worker) Claim(sig uint64, root graph.NodeID, edges []graph.EdgeID) bool {
	return w.r.hist.add(sig, root, edges)
}

// Seen reads the shared ESP history. A peer may claim the edge set right
// after a miss; the kernel then builds the candidate and loses the Claim.
func (w *worker) Seen(sig uint64, root graph.NodeID, a, b []graph.EdgeID) bool {
	return w.r.hist.hasUnion(sig, root, a, b)
}

// CountKept enforces Options.MaxTrees across workers.
func (w *worker) CountKept() bool { return w.r.kept.Add(1) >= int64(w.r.opts.MaxTrees) }

func (w *worker) Result(t *tree.Tree) bool { return w.r.coll.add(t) }

// PushGrow routes the op to the owner of its new root: local ops join
// this worker's queue, remote ones ship through the exchange.
func (w *worker) PushGrow(root graph.NodeID, op core.GrowOp) {
	w.r.pending.Add(1)
	if dest := w.r.owner(root); dest != w.id {
		w.r.deposit(dest, task{kind: taskGrowOp, t: op.T, e: op.E, prio: op.Prio})
		w.shipped++
	} else {
		w.push(op)
	}
}

func (w *worker) QueueLen() int { return len(w.q) }

// Mo commits the copy here or ships it to the worker owning its root.
func (w *worker) Mo(mo *tree.Tree) {
	if dest := w.r.owner(mo.Root); dest != w.id {
		w.r.pending.Add(1)
		w.r.deposit(dest, task{kind: taskMo, t: mo})
		w.shipped++
	} else {
		w.k.CommitMo(mo)
	}
}
