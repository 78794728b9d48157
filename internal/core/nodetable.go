package core

import (
	"math/bits"

	"ctpquery/internal/graph"
)

// nodeTable is an open-addressed map from node to V — linear probing over
// 8-byte slots keyed by the node ID itself (see flatTable) — standing
// where the kernel used a Go map per question asked of a node: a probe
// reads slots only, and a hit reads the one value it returns. The entries
// are a dense array of {key, value} records in entry order, from which
// growth re-enters every slot. Node IDs are dense, so the hash is a
// multiplication (Fibonacci hashing) whose high bits pick the slot; it
// shares no bits with exec's owner(n), which would leave a shard's table
// half empty. The zero value is an empty table. A *V is valid until the
// next at.
type nodeTable[V any] struct {
	flatTable
	recs []nodeRec[V]
}

type nodeRec[V any] struct {
	key graph.NodeID
	val V
}

// home is n's first slot in a table of mask+1 slots.
func home(n graph.NodeID, mask uint32) uint32 {
	return (uint32(n) * 0x9E3779B1) >> bits.LeadingZeros32(mask)
}

// probe walks n's probe sequence to its slot, reporting true, or to the
// free slot where it belongs.
func (t *nodeTable[V]) probe(n graph.NodeID) (uint32, bool) {
	if len(t.slots) == 0 {
		return 0, false
	}
	mask := uint32(len(t.slots) - 1)
	for i := home(n, mask); ; i = (i + 1) & mask {
		switch s := t.slots[i]; {
		case s.ref == 0:
			return i, false
		case s.key == uint32(n):
			return i, true
		}
	}
}

// index returns n's position in recs, its entry order.
func (t *nodeTable[V]) index(n graph.NodeID) (int, bool) {
	i, ok := t.probe(n)
	if !ok {
		return 0, false
	}
	return int(t.slots[i].ref) - 1, true
}

// find returns n's value, nil when the table has none.
func (t *nodeTable[V]) find(n graph.NodeID) *V {
	if i, ok := t.index(n); ok {
		return &t.recs[i].val
	}
	return nil
}

// at returns n's value, a zero one entered now if the table had none.
func (t *nodeTable[V]) at(n graph.NodeID) *V { return &t.recs[t.enter(n)].val }

// enter returns n's position, entering n now if the table had none.
func (t *nodeTable[V]) enter(n graph.NodeID) int {
	i, ok := t.probe(n)
	if ok {
		return int(t.slots[i].ref) - 1
	}
	grew := t.grow(len(t.recs) + 1)
	t.recs = append(fit(t.recs, &t.flatTable), nodeRec[V]{key: n})
	if !grew {
		t.slots[i] = slot{uint32(n), uint32(len(t.recs))}
	} else {
		mask := uint32(len(t.slots) - 1)
		for j := range t.recs {
			k := t.recs[j].key
			t.put(home(k, mask), uint32(k), uint32(j+1))
		}
	}
	return len(t.recs) - 1
}

// reserve sizes an empty table for n entries, so that entering them
// allocates nothing more.
func (t *nodeTable[V]) reserve(n int) {
	size := minTableSlots
	for 4*n > 3*size {
		size *= 2
	}
	t.slots = make([]slot, size)
	t.recs = make([]nodeRec[V], 0, 3*size/4)
}

// Reset empties the table for the next search.
func (t *nodeTable[V]) Reset() {
	t.flatTable.Reset()
	t.recs = emptiedUpTo(t.recs, maxTableSlots)
}
