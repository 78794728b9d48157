package core

import (
	"ctpquery/internal/bitset"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// GrowOp is a (tree, edge) Grow opportunity (Section 4.2). The kernel
// fills T, E and Prio; Seq is the FIFO tiebreak of whichever queue the
// scheduler puts the op on.
type GrowOp struct {
	T    *tree.Tree
	E    graph.EdgeID
	Prio float64
	Seq  uint64
}

// OpHeap is a min-heap of GrowOps ordered by (Prio, Seq) — the one grow
// queue layout, wrapped by the single- and multi-queue below and by
// exec's stealable per-worker queue. The sift operations are hand-rolled
// rather than delegated to container/heap: pushing a GrowOp through
// heap.Push boxes the struct into an interface, one heap allocation per
// queued op — the dominant allocator in GAM's main loop before this
// layout.
type OpHeap []GrowOp

func (h OpHeap) less(i, j int) bool {
	if h[i].Prio != h[j].Prio {
		return h[i].Prio < h[j].Prio
	}
	return h[i].Seq < h[j].Seq
}

// Push adds op to the heap.
func (h *OpHeap) Push(op GrowOp) {
	a := append(*h, op)
	*h = a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

// Pop removes and returns the least op; the heap must not be empty.
func (h *OpHeap) Pop() GrowOp {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = GrowOp{} // drop the tree reference for the GC
	a = a[:n]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && a.less(l, smallest) {
			smallest = l
		}
		if r < n && a.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	return top
}

// opQueue abstracts the single- and multi-queue (Section 4.9) scheduling
// strategies behind push/pop.
type opQueue interface {
	push(op GrowOp)
	pop() (GrowOp, bool)
	len() int
}

// singleQueue is the default: one global priority queue.
type singleQueue struct{ h OpHeap }

func (q *singleQueue) push(op GrowOp) { q.h.Push(op) }
func (q *singleQueue) len() int       { return len(q.h) }
func (q *singleQueue) pop() (GrowOp, bool) {
	if len(q.h) == 0 {
		return GrowOp{}, false
	}
	return q.h.Pop(), true
}

// multiQueue keeps one priority queue per tree signature (the sat bitset)
// and always pops from the queue holding the fewest entries, so that
// exploration initially concentrates around the smallest seed sets
// (Section 4.9, following the bidirectional-expansion idea of Kacholia et
// al.). Queues are located by the 64-bit signature of the sat bitset with
// an Equal collision check — no string key is built per push.
type multiQueue struct {
	buckets map[uint64][]*satHeap
	order   []*satHeap // creation order: deterministic pop scans
	total   int
}

// satHeap is the per-signature queue plus the exact bitset it stands for.
type satHeap struct {
	sat bitset.Bits
	h   OpHeap
}

func newMultiQueue() *multiQueue {
	return &multiQueue{buckets: make(map[uint64][]*satHeap)}
}

func (q *multiQueue) push(op GrowOp) {
	sig := op.T.Sat.Sig()
	var sh *satHeap
	for _, cand := range q.buckets[sig] {
		if cand.sat.Equal(op.T.Sat) {
			sh = cand
			break
		}
	}
	if sh == nil {
		// The sat bits alias the (immutable, kept) tree; no clone needed.
		sh = &satHeap{sat: op.T.Sat}
		q.buckets[sig] = append(q.buckets[sig], sh)
		q.order = append(q.order, sh)
	}
	sh.h.Push(op)
	q.total++
}

func (q *multiQueue) len() int { return q.total }

func (q *multiQueue) pop() (GrowOp, bool) {
	if q.total == 0 {
		return GrowOp{}, false
	}
	var best *satHeap
	bestLen := -1
	for _, sh := range q.order {
		if len(sh.h) == 0 {
			continue
		}
		if bestLen == -1 || len(sh.h) < bestLen {
			best = sh
			bestLen = len(sh.h)
		}
	}
	if best == nil {
		return GrowOp{}, false
	}
	q.total--
	return best.h.Pop(), true
}
