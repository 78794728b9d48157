package exec

import (
	"sync"

	"ctpquery/internal/core"
)

// stealBatch bounds how many ops a thief relocates per visit: enough to
// amortize the locking, small enough to keep work spread out.
const stealBatch = 64

// lockedQueue is a worker's grow queue — core's OpHeap, the same layout
// the caller-goroutine queues use — behind a mutex so idle peers can
// steal from it. The lock is uncontended in the common case — only the
// owner pushes and pops — and stealTail removes trailing heap leaves,
// which preserves the heap invariant for the remainder.
type lockedQueue struct {
	mu sync.Mutex
	h  core.OpHeap
}

func (q *lockedQueue) push(op core.GrowOp) {
	q.mu.Lock()
	q.h.Push(op)
	q.mu.Unlock()
}

func (q *lockedQueue) pop() (core.GrowOp, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.h) == 0 {
		return core.GrowOp{}, false
	}
	return q.h.Pop(), true
}

func (q *lockedQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.h)
}

// stealTail takes up to max ops — at most half the queue — from the tail
// of the heap array. Tail elements are leaves, so removing them keeps the
// remaining slice a valid heap; thieves get arbitrary-priority ops, which
// is fine: result completeness is order-independent (Section 4.8).
func (q *lockedQueue) stealTail(max int) []core.GrowOp {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := len(q.h) / 2
	if n > max {
		n = max
	}
	if n == 0 {
		return nil
	}
	cut := len(q.h) - n
	out := make([]core.GrowOp, n)
	copy(out, q.h[cut:])
	for i := cut; i < len(q.h); i++ {
		q.h[i] = core.GrowOp{}
	}
	q.h = q.h[:cut]
	return out
}
