package core

import (
	"ctpquery/internal/bitset"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// Step is one Grow opportunity of a queued tree (Section 4.2): the edge E
// and its far endpoint To, the root of the tree the Grow builds.
type Step struct {
	E  graph.EdgeID
	To graph.NodeID
}

// GrowRun is one queue entry: the steps of tree T at priority Prio, in
// the order the kernel found them. Seq is the FIFO tiebreak of whichever
// queue the scheduler puts the run on.
//
// A run pops like the ops it stands for. Its steps share one Prio and
// would have taken consecutive Seqs as single ops, so no other op's
// (Prio, Seq) key falls between two of them: the run's key (Prio, Seq)
// compares with every other key in the queue exactly as its next step's
// would, and popping the run step by step is the per-op order.
type GrowRun struct {
	T     *tree.Tree
	Steps []Step
	Prio  float64
	Seq   uint64
}

// OpHeap is a min-heap of GrowRuns ordered by (Prio, Seq) — the one grow
// queue layout, wrapped by the single- and multi-queue below and used
// as-is by each exec worker. Pop hands out the top run's next step and
// sifts only when the run is used up, so a tree's Grow opportunities cost
// one heap entry, not one each. The sift operations are hand-rolled
// rather than delegated to container/heap, whose Push boxes each entry
// into an interface.
type OpHeap struct {
	runs []GrowRun
	n    int // steps left over all runs
}

// Len reports the ops queued: the steps left, not the runs.
func (h *OpHeap) Len() int { return h.n }

func (h *OpHeap) less(i, j int) bool {
	a, b := &h.runs[i], &h.runs[j]
	if a.Prio != b.Prio {
		return a.Prio < b.Prio
	}
	return a.Seq < b.Seq
}

// Push adds r, which must hold at least one step.
func (h *OpHeap) Push(r GrowRun) {
	h.n += len(r.Steps)
	h.runs = append(h.runs, r)
	a := h.runs
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

// Pop removes and returns the least op; the heap must not be empty.
func (h *OpHeap) Pop() (*tree.Tree, Step) {
	a := h.runs
	top := &a[0]
	t, s := top.T, top.Steps[0]
	h.n--
	if len(top.Steps) > 1 {
		top.Steps = top.Steps[1:]
		return t, s
	}
	n := len(a) - 1
	a[0] = a[n]
	a[n] = GrowRun{} // drop the tree and step references for the GC
	a = a[:n]
	h.runs = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		a[i], a[smallest] = a[smallest], a[i]
		i = smallest
	}
	return t, s
}

// Reset empties the heap for the next search (see Emptied).
func (h *OpHeap) Reset() {
	h.runs = Emptied(h.runs)
	h.n = 0
}

// KeepSteps is what a scheduler's step slab keeps across searches, in
// steps. A run's steps live in the slab of the scheduler that queued or
// shipped it, from the push to the end of the search.
const KeepSteps = 1 << 16

// opQueue abstracts the single- and multi-queue (Section 4.9) scheduling
// strategies behind push/pop.
type opQueue interface {
	push(r GrowRun)
	pop() (*tree.Tree, Step, bool)
	len() int
}

// singleQueue is the default: one global priority queue.
type singleQueue struct{ h OpHeap }

func (q *singleQueue) push(r GrowRun) { q.h.Push(r) }
func (q *singleQueue) len() int       { return q.h.Len() }
func (q *singleQueue) pop() (*tree.Tree, Step, bool) {
	if q.h.Len() == 0 {
		return nil, Step{}, false
	}
	t, s := q.h.Pop()
	return t, s, true
}

// multiQueue keeps one priority queue per tree signature (the sat bitset)
// and always pops from the queue holding the fewest ops, so that
// exploration initially concentrates around the smallest seed sets
// (Section 4.9, following the bidirectional-expansion idea of Kacholia et
// al.). A run is one tree's, so all its steps share a queue. Queues are
// located by the 64-bit signature of the sat bitset with an Equal
// collision check — no string key is built per push.
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

func (q *multiQueue) push(r GrowRun) {
	sig := r.T.Sat.Sig()
	var sh *satHeap
	for _, cand := range q.buckets[sig] {
		if cand.sat.Equal(r.T.Sat) {
			sh = cand
			break
		}
	}
	if sh == nil {
		// The sat bits alias the (immutable, kept) tree; no clone needed.
		sh = &satHeap{sat: r.T.Sat}
		q.buckets[sig] = append(q.buckets[sig], sh)
		q.order = append(q.order, sh)
	}
	sh.h.Push(r)
	q.total += len(r.Steps)
}

func (q *multiQueue) len() int { return q.total }

func (q *multiQueue) pop() (*tree.Tree, Step, bool) {
	if q.total == 0 {
		return nil, Step{}, false
	}
	var best *satHeap
	for _, sh := range q.order {
		if n := sh.h.Len(); n > 0 && (best == nil || n < best.h.Len()) {
			best = sh
		}
	}
	q.total--
	t, s := best.h.Pop()
	return t, s, true
}
