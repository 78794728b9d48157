package core

import (
	"testing"

	"ctpquery/internal/bitset"
	"ctpquery/internal/tree"
)

func mkOp(satBits []int, prio float64, seq uint64) GrowOp {
	var sat bitset.Bits
	for _, b := range satBits {
		sat.Set(b)
	}
	t := tree.NewInit(0, sat)
	return GrowOp{T: t, E: 0, Prio: prio, Seq: seq}
}

func TestSingleQueueOrdering(t *testing.T) {
	q := new(singleQueue)
	q.push(mkOp(nil, 2, 1))
	q.push(mkOp(nil, 1, 2))
	q.push(mkOp(nil, 1, 3))
	if q.len() != 3 {
		t.Fatalf("len = %d", q.len())
	}
	// Lowest priority first; FIFO among equals.
	op, ok := q.pop()
	if !ok || op.Prio != 1 || op.Seq != 2 {
		t.Fatalf("pop = %+v", op)
	}
	op, _ = q.pop()
	if op.Seq != 3 {
		t.Fatalf("tie-break wrong: %+v", op)
	}
	op, _ = q.pop()
	if op.Prio != 2 {
		t.Fatalf("pop = %+v", op)
	}
	if _, ok := q.pop(); ok {
		t.Fatal("empty queue popped")
	}
}

func TestMultiQueuePicksSmallest(t *testing.T) {
	q := newMultiQueue()
	// Signature A: three ops; signature B: one op.
	q.push(mkOp([]int{0}, 1, 1))
	q.push(mkOp([]int{0}, 2, 2))
	q.push(mkOp([]int{0}, 3, 3))
	q.push(mkOp([]int{1}, 9, 4))
	if q.len() != 4 {
		t.Fatalf("len = %d", q.len())
	}
	// The B queue holds fewer entries: its op pops first despite the
	// higher priority value.
	op, ok := q.pop()
	if !ok || op.Seq != 4 {
		t.Fatalf("pop = %+v, want the lone signature-B op", op)
	}
	// Now A (3 entries) is the only non-empty queue; pops by priority.
	op, _ = q.pop()
	if op.Seq != 1 {
		t.Fatalf("pop = %+v", op)
	}
	if q.len() != 2 {
		t.Fatalf("len = %d", q.len())
	}
}

func TestMultiQueueDrainsSmallestFirst(t *testing.T) {
	// Section 4.9: always grow from the queue with the fewest entries —
	// popping keeps that queue the smallest, so exploration concentrates
	// on the small seed set's neighborhood until it drains.
	q := newMultiQueue()
	for i := uint64(0); i < 2; i++ {
		q.push(mkOp([]int{0}, 0, i)) // small signature-A queue
	}
	for i := uint64(0); i < 4; i++ {
		q.push(mkOp([]int{1}, 0, 100+i)) // larger signature-B queue
	}
	var order []uint64
	for {
		op, ok := q.pop()
		if !ok {
			break
		}
		order = append(order, op.Seq)
	}
	if len(order) != 6 {
		t.Fatalf("drained %d ops", len(order))
	}
	// The two A ops must come out before any B op.
	if order[0] >= 100 || order[1] >= 100 {
		t.Fatalf("small queue not drained first: %v", order)
	}
	for _, s := range order[2:] {
		if s < 100 {
			t.Fatalf("A op after B started: %v", order)
		}
	}
}

func TestMultiQueueEmpty(t *testing.T) {
	q := newMultiQueue()
	if _, ok := q.pop(); ok {
		t.Fatal("empty multi-queue popped")
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
