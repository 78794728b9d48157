package graph

// A table node has 32 children: three levels cover 32,768 keys, four
// cover a million.
const (
	tableBits = 5
	tableFan  = 1 << tableBits
	tableMask = tableFan - 1
)

// table is a persistent array of V over non-negative int keys: a radix
// trie in which an absent entry reads as V's zero value. Every node
// records the generation that created it. set at generation gen writes a
// node of that generation in place and copies any other node on its way
// down (path copying), so a node a published view can reach is never
// written again, and one update costs at most one node copy per level,
// whatever the table holds. The zero value is an empty table.
type table[V any] struct {
	root  *tableNode[V]
	shift uint // key bits below the root's digit
}

type tableNode[V any] struct {
	gen  uint64
	kids [tableFan]*tableNode[V] // interior levels
	vals [tableFan]V             // the leaf level
}

func (t *table[V]) get(k int) (v V) {
	if uint(k)>>t.shift >= tableFan {
		return v
	}
	n := t.root
	for s := t.shift; s > 0 && n != nil; s -= tableBits {
		n = n.kids[k>>s&tableMask]
	}
	if n != nil {
		v = n.vals[k&tableMask]
	}
	return v
}

func (t *table[V]) set(gen uint64, k int, v V) {
	for k>>t.shift >= tableFan {
		if t.root != nil {
			r := &tableNode[V]{gen: gen}
			r.kids[0] = t.root
			t.root = r
		}
		t.shift += tableBits
	}
	p := &t.root
	for s := t.shift; ; s -= tableBits {
		n := *p
		switch {
		case n == nil:
			n = &tableNode[V]{gen: gen}
		case n.gen != gen:
			c := *n
			c.gen = gen
			n = &c
		}
		*p = n
		if s == 0 {
			n.vals[k&tableMask] = v
			return
		}
		p = &n.kids[k>>s&tableMask]
	}
}
