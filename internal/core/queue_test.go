package core

import (
	"math/rand"
	"testing"

	"ctpquery/internal/bitset"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// mkRun is a run of n steps of a fresh tree over the seed sets satBits.
// Step i has edge 10*seq + i, so a popped step names its run and place.
func mkRun(satBits []int, prio float64, seq uint64, n int) GrowRun {
	var sat bitset.Bits
	for _, b := range satBits {
		sat.Set(b)
	}
	steps := make([]Step, n)
	for i := range steps {
		steps[i] = Step{E: graph.EdgeID(10*seq + uint64(i)), To: graph.NodeID(i)}
	}
	return GrowRun{T: tree.NewInit(0, sat), Steps: steps, Prio: prio, Seq: seq}
}

// popE pops one op and returns its edge, or -1 on an empty queue.
func popE(q opQueue) graph.EdgeID {
	_, s, ok := q.pop()
	if !ok {
		return -1
	}
	return s.E
}

func TestSingleQueueOrdering(t *testing.T) {
	q := new(singleQueue)
	q.push(mkRun(nil, 2, 1, 1))
	q.push(mkRun(nil, 1, 2, 2))
	q.push(mkRun(nil, 1, 3, 1))
	if q.len() != 4 {
		t.Fatalf("len = %d, want the 4 ops", q.len())
	}
	// Lowest priority first; FIFO among equals, a run's steps in order.
	for _, want := range []graph.EdgeID{20, 21, 30, 10, -1} {
		if got := popE(q); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
	}
}

func TestMultiQueuePicksSmallest(t *testing.T) {
	q := newMultiQueue()
	// Signature A: three ops in two runs; signature B: one op.
	q.push(mkRun([]int{0}, 1, 1, 2))
	q.push(mkRun([]int{0}, 3, 3, 1))
	q.push(mkRun([]int{1}, 9, 4, 1))
	if q.len() != 4 {
		t.Fatalf("len = %d", q.len())
	}
	// The B queue holds fewer ops: its op pops first despite the higher
	// priority value.
	if got := popE(q); got != 40 {
		t.Fatalf("pop = %d, want the lone signature-B op", got)
	}
	// Now A (3 ops) is the only non-empty queue; pops by priority.
	if got := popE(q); got != 10 {
		t.Fatalf("pop = %d", got)
	}
	if q.len() != 2 {
		t.Fatalf("len = %d", q.len())
	}
}

func TestMultiQueueDrainsSmallestFirst(t *testing.T) {
	// Section 4.9: always grow from the queue with the fewest ops —
	// popping keeps that queue the smallest, so exploration concentrates
	// on the small seed set's neighborhood until it drains. Sizes count
	// ops, not runs: A's one run of two steps is the smaller queue.
	q := newMultiQueue()
	q.push(mkRun([]int{0}, 0, 1, 2)) // small signature-A queue
	for i := uint64(0); i < 2; i++ {
		q.push(mkRun([]int{1}, 0, 10+i, 2)) // larger signature-B queue
	}
	var order []graph.EdgeID
	for e := popE(q); e >= 0; e = popE(q) {
		order = append(order, e)
	}
	if len(order) != 6 {
		t.Fatalf("drained %d ops", len(order))
	}
	// The two A ops must come out before any B op.
	if order[0] >= 100 || order[1] >= 100 {
		t.Fatalf("small queue not drained first: %v", order)
	}
	for _, e := range order[2:] {
		if e < 100 {
			t.Fatalf("A op after B started: %v", order)
		}
	}
}

func TestMultiQueueEmpty(t *testing.T) {
	q := newMultiQueue()
	if _, _, ok := q.pop(); ok {
		t.Fatal("empty multi-queue popped")
	}
}

// refOp is one op of the per-op reference queues below: the layout the
// grow queue had before runs, one entry per (tree, edge) with its own Seq.
type refOp struct {
	t    *tree.Tree
	s    Step
	prio float64
	seq  uint64
}

func refLess(a, b refOp) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// refQueue is the per-op reference: with multi, one queue per sat bitset
// and pops from the one holding the fewest ops (the first made, among
// equals); otherwise one queue. Linear scans: it is only a reference.
type refQueue struct {
	multi   bool
	buckets [][]refOp
	sats    []bitset.Bits
	seq     uint64
}

func (q *refQueue) push(r GrowRun) {
	b := 0
	if q.multi {
		for b = 0; b < len(q.sats) && !q.sats[b].Equal(r.T.Sat); b++ {
		}
	}
	if b == len(q.buckets) {
		q.buckets = append(q.buckets, nil)
		q.sats = append(q.sats, r.T.Sat)
	}
	for _, s := range r.Steps {
		q.seq++
		q.buckets[b] = append(q.buckets[b], refOp{r.T, s, r.Prio, q.seq})
	}
}

func (q *refQueue) len() (n int) {
	for _, b := range q.buckets {
		n += len(b)
	}
	return n
}

// holds reports whether an op of t is queued.
func (q *refQueue) holds(t *tree.Tree) bool {
	for _, b := range q.buckets {
		for _, op := range b {
			if op.t == t {
				return true
			}
		}
	}
	return false
}

func (q *refQueue) pop() (refOp, bool) {
	best := -1
	for i, b := range q.buckets {
		if len(b) > 0 && (best < 0 || len(b) < len(q.buckets[best])) {
			best = i
		}
	}
	if best < 0 {
		return refOp{}, false
	}
	b := q.buckets[best]
	min := 0
	for i := range b {
		if refLess(b[i], b[min]) {
			min = i
		}
	}
	op := b[min]
	q.buckets[best] = append(b[:min], b[min+1:]...)
	return op, true
}

// A run pops exactly like the ops it stands for. Random interleavings of
// pushes and pops — runs of 1–8 steps at a few priorities, with runs of a
// lower priority value pushed while another run is half popped — must
// pop the per-op reference's (T, E, To) sequence, with equal lengths after
// every step, on the single queue and the multi-queue alike.
func TestOpHeapRunsPopInOpOrder(t *testing.T) {
	sats := [][]int{{0}, {1}, {0, 1}}
	for _, multi := range []bool{false, true} {
		var preempted int
		for trial := 0; trial < 200; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			var q opQueue = new(singleQueue)
			if multi {
				q = newMultiQueue()
			}
			ref := &refQueue{multi: multi}
			var seq uint64
			push := func(prio float64) {
				seq++
				r := mkRun(sats[rng.Intn(len(sats))], prio, seq, 1+rng.Intn(8))
				q.push(r)
				ref.push(r)
			}
			for step := 0; step < 300; step++ {
				if rng.Intn(3) == 0 || q.len() == 0 {
					push(float64(rng.Intn(4)))
				} else {
					gt, gs, ok := q.pop()
					want, wok := ref.pop()
					if !ok || !wok || gt != want.t || gs != want.s {
						t.Fatalf("multi=%v trial %d step %d: pop %p %+v %v, reference %p %+v %v",
							multi, trial, step, gt, gs, ok, want.t, want.s, wok)
					}
					// A run below the priority of the popped one must pop
					// before the rest of it.
					if rng.Intn(4) == 0 {
						if ref.holds(want.t) {
							preempted++
						}
						push(want.prio - 1)
					}
				}
				if q.len() != ref.len() {
					t.Fatalf("multi=%v trial %d step %d: len %d, reference %d", multi, trial, step, q.len(), ref.len())
				}
			}
		}
		if preempted == 0 {
			t.Fatalf("multi=%v: no run was pushed in the middle of another", multi)
		}
	}
}

func TestDeadlineDisabled(t *testing.T) {
	d := newDeadline(0, nil)
	for i := 0; i < 1000; i++ {
		if d.expired() {
			t.Fatal("disabled deadline expired")
		}
	}
}
