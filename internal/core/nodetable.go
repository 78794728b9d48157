package core

import (
	"math/bits"

	"ctpquery/internal/graph"
)

// nodeTable is an open-addressed map from node to V — linear probing over
// one flat slot array — standing where the kernel used a Go map per
// question asked of a node: a probe touches one cache line, and growth
// and reset reuse the arrays of the search before (see flatTable). Node
// IDs are dense, so the hash is a multiplication (Fibonacci hashing) whose
// high bits pick the slot; it shares no bits with exec's owner(n), which
// would leave a shard's table half empty. The zero value is an empty
// table. A *V is valid until the next at.
type nodeTable[V any] struct {
	flatTable[nodeSlot[V]]
}

type nodeSlot[V any] struct {
	key  graph.NodeID
	used bool
	val  V
}

func (t *nodeTable[V]) probe(n graph.NodeID) *nodeSlot[V] {
	mask := uint32(len(t.slots) - 1)
	for i := (uint32(n) * 0x9E3779B1) >> bits.LeadingZeros32(mask); ; i = (i + 1) & mask {
		if s := &t.slots[i]; !s.used || s.key == n {
			return s
		}
	}
}

// find returns n's value, nil when the table has none.
func (t *nodeTable[V]) find(n graph.NodeID) *V {
	if len(t.slots) == 0 {
		return nil
	}
	if s := t.probe(n); s.used {
		return &s.val
	}
	return nil
}

// at returns n's value, a zero one entered now if the table had none.
func (t *nodeTable[V]) at(n graph.NodeID) *V {
	old := t.grow()
	for i := range old {
		if old[i].used {
			*t.probe(old[i].key) = old[i]
		}
	}
	clear(old)
	s := t.probe(n)
	if !s.used {
		s.key, s.used = n, true
		t.n++
	}
	return &s.val
}
