package graph

import (
	"fmt"
	"slices"
)

// overlay is the delta a Store epoch view carries over its base: the only
// copy of it. Mutate derives the next epoch's overlay from the current
// one (successor, then apply): the header is copied, everything behind it
// shared, and an op copies only the per-node and per-label records it
// touches — through tables whose nodes, like the records, carry the
// generation allowed to write them: the epoch of the view that made them.
//
// Invariants, relied on by the accessors in graph.go:
//   - Nothing a published view can read is written again. A table node or
//     record is written only by the generation that made it, and a view
//     published at epoch E reaches none made above E while its successor
//     writes at E+1. Slices — the lists, deltaEdges, addedLabel and the
//     Dict's byID — are appended to only past the length any published
//     view holds (a linear chain of epochs has exactly one appender; a
//     dropped successor's writes there are overwritten by the next one),
//     and every other change to a list copies it.
//   - deltaEdges occupy edge IDs [len(base edges), NumEdges); their slots
//     are never reused, deleted delta edges keep their Edge value (EdgeAlive
//     reports them dead).
//   - A node record's out/in/adj and a label record's edges are ascending
//     by edge ID and contain no dead edges: a new edge's ID exceeds every
//     other, so adding one appends. nodes/typed/types are ascending too.
//   - nodes has a record for every node whose edges or types the delta
//     changed and for every added node; a record holds the node's whole
//     lists, so a node without one reads the base unchanged. labels does
//     the same per label for NodesWithLabel/EdgesWithLabel/NodesWithType.
type overlay struct {
	addedLabel []LabelID // labels of added nodes, indexed by NodeID - base nodes
	deltaEdges []Edge    // indexed by EdgeID - base edges

	nodes  table[*nodeRec]
	labels table[*labelRec]
	dead   table[uint64] // deleted edges, one bit per edge ID, 64 to a word

	deadBase, deadDelta, typesAdded int
}

type nodeRec struct {
	gen          uint64
	out, in, adj []EdgeID
	types        []LabelID
}

type labelRec struct {
	gen   uint64
	nodes []NodeID // NodesWithLabel
	edges []EdgeID // EdgesWithLabel
	typed []NodeID // NodesWithType
}

func (ov *overlay) isDead(e EdgeID) bool {
	return ov.dead.get(int(e)>>6)&(1<<(uint(e)&63)) != 0
}

// pendingOps counts the delta's logical operations: nodes and edges
// added, edges deleted, types attached.
func (ov *overlay) pendingOps() int {
	return len(ov.addedLabel) + len(ov.deltaEdges) + ov.deadBase + ov.deadDelta + ov.typesAdded
}

// successor returns a copy of v, to be published at epoch, for a batch to
// be applied to before any reader sees it: the overlay and dictionary
// headers are copied, the arrays and tables behind them shared. The epoch
// is the generation the batch writes at — unique along the chain of views
// since the base was built, as Mutate moves it forward and a compaction's
// replay starts the chain of a fresh base.
func (v *Graph) successor(epoch uint64) *Graph {
	next := *v
	next.epoch = epoch
	ov := overlay{}
	if v.ov != nil {
		ov = *v.ov
	}
	next.ov = &ov
	d := *v.labels
	next.labels = &d
	return &next
}

// apply runs b op by op, in Batch's field order, against v — a successor
// no reader holds. Labels, duplicates and deletions resolve through v's
// own accessors, which already see the batch's earlier ops. On error v is
// half-applied and must be dropped.
func (v *Graph) apply(b Batch) (MutateResult, error) {
	var res MutateResult
	for _, na := range b.AddNodes {
		if na.Label == "" {
			v.addNode(NoLabel, v.internAll(na.Types), &res)
			continue
		}
		id, count := v.resolve(na.Label)
		switch {
		case count > 1:
			return res, fmt.Errorf("graph: AddNode %q: label is ambiguous (%d nodes)", na.Label, count)
		case count == 1:
			// Upsert: attach the types the node does not have yet.
			for _, t := range v.internAll(na.Types) {
				v.addType(id, t, &res)
			}
		default:
			v.addNode(v.intern(na.Label), v.internAll(na.Types), &res)
		}
	}
	for _, ta := range b.AddTypes {
		id, count := v.resolve(ta.Node)
		if count == 0 {
			return res, fmt.Errorf("graph: AddType %q: unknown node %q", ta.Type, ta.Node)
		}
		if count > 1 {
			return res, fmt.Errorf("graph: AddType %q: node label %q is ambiguous (%d nodes)", ta.Type, ta.Node, count)
		}
		v.addType(id, v.intern(ta.Type), &res)
	}
	for _, ae := range b.AddEdges {
		src, err := v.ensureNode(ae.Source, &res)
		if err != nil {
			return res, fmt.Errorf("graph: AddEdge %s-[%s]->%s: %w", ae.Source, ae.Label, ae.Target, err)
		}
		dst, err := v.ensureNode(ae.Target, &res)
		if err != nil {
			return res, fmt.Errorf("graph: AddEdge %s-[%s]->%s: %w", ae.Source, ae.Label, ae.Target, err)
		}
		v.addEdge(Edge{Source: src, Target: dst, Label: v.intern(ae.Label)})
		res.EdgesAdded++
	}
	for _, de := range b.DelEdges {
		if err := v.delEdges(de, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// resolve finds the node(s) labeled label: one representative and the
// count. It never interns.
func (v *Graph) resolve(label string) (NodeID, int) {
	l, ok := v.labels.Lookup(label)
	if !ok || l == NoLabel {
		return 0, 0
	}
	ns := v.NodesWithLabel(l)
	if len(ns) == 0 {
		return 0, 0
	}
	return ns[0], len(ns)
}

// ensureNode resolves label to a unique node, creating one when the label
// names none (the triples loader's implicit-node rule).
func (v *Graph) ensureNode(label string, res *MutateResult) (NodeID, error) {
	if label == "" {
		return 0, fmt.Errorf("empty node label")
	}
	id, count := v.resolve(label)
	switch {
	case count > 1:
		return 0, fmt.Errorf("node label %q is ambiguous (%d nodes)", label, count)
	case count == 1:
		return id, nil
	}
	return v.addNode(v.intern(label), nil, res), nil
}

func (v *Graph) intern(s string) LabelID { return v.labels.grow(v.epoch, s) }

func (v *Graph) internAll(ss []string) []LabelID {
	if len(ss) == 0 {
		return nil
	}
	out := make([]LabelID, 0, len(ss))
	for _, s := range ss {
		out = append(out, v.intern(s))
	}
	return out
}

func (v *Graph) addNode(l LabelID, types []LabelID, res *MutateResult) NodeID {
	ov := v.ov
	n := NodeID(len(v.nodeLabel) + len(ov.addedLabel))
	ov.addedLabel = append(ov.addedLabel, l)
	ov.nodes.set(v.epoch, int(n), &nodeRec{gen: v.epoch})
	if l != NoLabel {
		r := v.labelRec(l)
		r.nodes = append(r.nodes, n)
	}
	res.NodesAdded++
	for _, t := range types {
		v.addType(n, t, res)
	}
	return n
}

func (v *Graph) addType(n NodeID, t LabelID, res *MutateResult) {
	if v.HasType(n, t) {
		return
	}
	nr := v.nodeRec(n)
	nr.types = insertSorted(nr.types, t)
	lr := v.labelRec(t)
	lr.typed = insertSorted(lr.typed, n)
	v.ov.typesAdded++
	res.TypesAdded++
}

func (v *Graph) addEdge(ed Edge) {
	ov := v.ov
	e := EdgeID(len(v.edges) + len(ov.deltaEdges))
	ov.deltaEdges = append(ov.deltaEdges, ed)
	src := v.nodeRec(ed.Source)
	src.out = append(src.out, e)
	src.adj = append(src.adj, e)
	dst := v.nodeRec(ed.Target)
	dst.in = append(dst.in, e)
	if ed.Target != ed.Source {
		dst.adj = append(dst.adj, e)
	}
	lr := v.labelRec(ed.Label)
	lr.edges = append(lr.edges, e)
}

// delEdges deletes every live edge matching the triple — base edges,
// earlier batches' and this batch's own alike. Zero matches is fine.
func (v *Graph) delEdges(t Triple, res *MutateResult) error {
	src, scount := v.resolve(t.Source)
	if scount > 1 {
		return fmt.Errorf("graph: DelEdge %s-[%s]->%s: source label is ambiguous", t.Source, t.Label, t.Target)
	}
	dst, dcount := v.resolve(t.Target)
	if dcount > 1 {
		return fmt.Errorf("graph: DelEdge %s-[%s]->%s: target label is ambiguous", t.Source, t.Label, t.Target)
	}
	l, lok := v.labels.Lookup(t.Label)
	if scount == 0 || dcount == 0 || !lok {
		return nil
	}
	// Deleting replaces src's out list with a copy, so the range keeps
	// walking the list as it was.
	for _, e := range v.OutEdges(src) {
		if ed := v.Edge(e); ed.Target == dst && ed.Label == l {
			v.delEdge(e, ed)
			res.EdgesDeleted++
		}
	}
	return nil
}

func (v *Graph) delEdge(e EdgeID, ed Edge) {
	ov := v.ov
	src := v.nodeRec(ed.Source)
	src.out = removeSorted(src.out, e)
	src.adj = removeSorted(src.adj, e)
	dst := v.nodeRec(ed.Target)
	dst.in = removeSorted(dst.in, e)
	if ed.Target != ed.Source {
		dst.adj = removeSorted(dst.adj, e)
	}
	lr := v.labelRec(ed.Label)
	lr.edges = removeSorted(lr.edges, e)
	w := int(e) >> 6
	ov.dead.set(v.epoch, w, ov.dead.get(w)|1<<(uint(e)&63))
	if int(e) < len(v.edges) {
		ov.deadBase++
	} else {
		ov.deadDelta++
	}
}

// nodeRec returns n's record for the batch to write: its own, or a copy
// of the view's, seeded from the base when the delta never touched n.
func (v *Graph) nodeRec(n NodeID) *nodeRec {
	ov := v.ov
	r := ov.nodes.get(int(n))
	if r != nil && r.gen == v.epoch {
		return r
	}
	c := &nodeRec{}
	if r != nil {
		*c = *r
	} else {
		// Base CSR sub-slices come capped; a type list may not be.
		c.out, c.in, c.adj, c.types = v.OutEdges(n), v.InEdges(n), v.IncidentEdges(n), slices.Clip(v.NodeTypes(n))
	}
	c.gen = v.epoch
	ov.nodes.set(v.epoch, int(n), c)
	return c
}

// labelRec is nodeRec for label l's index entries.
func (v *Graph) labelRec(l LabelID) *labelRec {
	ov := v.ov
	r := ov.labels.get(int(l))
	if r != nil && r.gen == v.epoch {
		return r
	}
	c := &labelRec{}
	if r != nil {
		*c = *r
	} else {
		c.nodes, c.edges, c.typed = v.NodesWithLabel(l), v.EdgesWithLabel(l), v.NodesWithType(l)
	}
	c.gen = v.epoch
	ov.labels.set(v.epoch, int(l), c)
	return c
}

// insertSorted returns s with x inserted in ascending order. Only an
// insert at the end may write into s's array — past its length, where no
// published view reads; any other copies.
func insertSorted[T ~int32](s []T, x T) []T {
	i, _ := slices.BinarySearch(s, x)
	if i == len(s) {
		return append(s, x)
	}
	out := make([]T, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, x)
	return append(out, s[i:]...)
}

// removeSorted returns a copy of s without x.
func removeSorted[T ~int32](s []T, x T) []T {
	i, found := slices.BinarySearch(s, x)
	if !found {
		return s
	}
	out := make([]T, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}
