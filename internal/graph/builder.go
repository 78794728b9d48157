package graph

import (
	"fmt"
	"sort"
	"sync"
)

// Builder assembles a Graph. It is not safe for concurrent use. After
// Build, the builder must not be reused.
type Builder struct {
	labels    *Dict
	nodeLabel []LabelID
	nodeTypes [][]LabelID
	edges     []Edge
	nodeProps map[string]map[NodeID]string
	edgeProps map[string]map[EdgeID]string
	built     bool
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		labels:    NewDict(),
		nodeProps: make(map[string]map[NodeID]string),
		edgeProps: make(map[string]map[EdgeID]string),
	}
}

// AddNode adds a node with the given label and returns its ID. Labels need
// not be unique; use the returned ID to reference the node.
func (b *Builder) AddNode(label string) NodeID {
	id := NodeID(len(b.nodeLabel))
	b.nodeLabel = append(b.nodeLabel, b.labels.Intern(label))
	b.nodeTypes = append(b.nodeTypes, nil)
	return id
}

// AddNodes adds n unlabeled nodes and returns the ID of the first.
func (b *Builder) AddNodes(n int) NodeID {
	first := NodeID(len(b.nodeLabel))
	for i := 0; i < n; i++ {
		b.nodeLabel = append(b.nodeLabel, NoLabel)
		b.nodeTypes = append(b.nodeTypes, nil)
	}
	return first
}

// SetNodeLabel replaces the label of an existing node.
func (b *Builder) SetNodeLabel(n NodeID, label string) {
	b.nodeLabel[n] = b.labels.Intern(label)
}

// AddType attaches a type to node n. Duplicate types are ignored.
func (b *Builder) AddType(n NodeID, typ string) {
	id := b.labels.Intern(typ)
	for _, t := range b.nodeTypes[n] {
		if t == id {
			return
		}
	}
	b.nodeTypes[n] = append(b.nodeTypes[n], id)
}

// AddEdge adds a directed edge src --label--> dst and returns its ID.
func (b *Builder) AddEdge(src NodeID, label string, dst NodeID) EdgeID {
	if int(src) >= len(b.nodeLabel) || int(dst) >= len(b.nodeLabel) || src < 0 || dst < 0 {
		panic(fmt.Sprintf("graph: AddEdge endpoint out of range (%d -> %d, have %d nodes)",
			src, dst, len(b.nodeLabel)))
	}
	id := EdgeID(len(b.edges))
	b.edges = append(b.edges, Edge{Source: src, Target: dst, Label: b.labels.Intern(label)})
	return id
}

// SetNodeProp sets string property p of node n.
func (b *Builder) SetNodeProp(n NodeID, p, v string) {
	m := b.nodeProps[p]
	if m == nil {
		m = make(map[NodeID]string)
		b.nodeProps[p] = m
	}
	m[n] = v
}

// SetEdgeProp sets string property p of edge e.
func (b *Builder) SetEdgeProp(e EdgeID, p, v string) {
	m := b.edgeProps[p]
	if m == nil {
		m = make(map[EdgeID]string)
		b.edgeProps[p] = m
	}
	m[e] = v
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodeLabel) }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build freezes the builder into an immutable Graph, computing the CSR
// adjacency arrays and label/type indexes with one counting sort each.
// The builder must not be used afterwards.
func (b *Builder) Build() *Graph {
	if b.built {
		panic("graph: Build called twice on the same Builder")
	}
	b.built = true

	g := &Graph{
		labels:    b.labels,
		nodeLabel: b.nodeLabel,
		nodeTypes: b.nodeTypes,
		edges:     b.edges,
		nodeProps: b.nodeProps,
		edgeProps: b.edgeProps,
	}

	// Sort node type lists so HasType can early-exit.
	for i := range g.nodeTypes {
		ts := g.nodeTypes[i]
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	}

	freezeIndexes(g, func() { g.fingerprint = g.computeFingerprint() })
	return g
}

// freezeIndexes computes the CSR adjacency arrays and label/type indexes
// from g's nodeLabel/nodeTypes/edges/labels fields — the freeze step
// shared by Builder.Build, ReadSnapshot and the Store's compaction
// rebuild — and runs the caller's extra tasks, such as the content
// fingerprint, beside them. Each task reads only those fields and writes
// only its own, so on a graph of concurrentFreezeEdges edges or more the
// tasks run concurrently; their result does not depend on the schedule.
// Every ID must already be in range: a panic on a task's goroutine is
// outside any caller's recover.
func freezeIndexes(g *Graph, extra ...func()) {
	n, nLabels := len(g.nodeLabel), g.labels.Len()
	tasks := append([]func(){
		func() { g.adjOff, g.adjEdges = adjacencyCSR(g.edges, n) },
		func() { g.outOff, g.outEdges = edgeCSR(g.edges, n, func(e Edge) int32 { return int32(e.Source) }) },
		func() { g.inOff, g.inEdges = edgeCSR(g.edges, n, func(e Edge) int32 { return int32(e.Target) }) },
		func() {
			g.labelEdgeOff, g.labelEdges = edgeCSR(g.edges, nLabels, func(e Edge) int32 { return int32(e.Label) })
		},
		g.freezeNodeIndexes,
	}, extra...)
	if len(g.edges) < concurrentFreezeEdges {
		for _, task := range tasks {
			task()
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(tasks) - 1)
	for _, task := range tasks[1:] {
		go func(task func()) {
			defer wg.Done()
			task()
		}(task)
	}
	tasks[0]()
	wg.Wait()
}

// concurrentFreezeEdges is the graph size from which the freeze runs its
// tasks on goroutines. A smaller graph freezes in a few milliseconds on
// one CPU, and a Store compacts graphs of that size beside the readers it
// serves, which the freeze should not crowd off the other CPUs.
const concurrentFreezeEdges = 1 << 17

// edgeCSR groups edge IDs by key into CSR form over [0, buckets): count
// per key, prefix-sum into offsets, then fill in edge-ID order so every
// run is ascending.
func edgeCSR(edges []Edge, buckets int, key func(Edge) int32) ([]int32, []EdgeID) {
	off := make([]int32, buckets+1)
	for _, e := range edges {
		off[key(e)+1]++
	}
	prefixSum(off)
	ids := make([]EdgeID, off[buckets])
	cur := cursors(off)
	for i, e := range edges {
		k := key(e)
		ids[cur[k]] = EdgeID(i)
		cur[k]++
	}
	return off, ids
}

// adjacencyCSR is edgeCSR keyed by both endpoints: a self-loop is listed
// once.
func adjacencyCSR(edges []Edge, n int) ([]int32, []EdgeID) {
	off := make([]int32, n+1)
	for _, e := range edges {
		off[e.Source+1]++
		if e.Target != e.Source {
			off[e.Target+1]++
		}
	}
	prefixSum(off)
	ids := make([]EdgeID, off[n])
	cur := cursors(off)
	for i, e := range edges {
		ids[cur[e.Source]] = EdgeID(i)
		cur[e.Source]++
		if e.Target != e.Source {
			ids[cur[e.Target]] = EdgeID(i)
			cur[e.Target]++
		}
	}
	return off, ids
}

// freezeNodeIndexes builds the label and type node indexes, CSR keyed by
// the dense LabelID. Unlabeled nodes are not indexed.
func (g *Graph) freezeNodeIndexes() {
	nLabels := g.labels.Len()
	g.labelNodeOff = make([]int32, nLabels+1)
	for _, l := range g.nodeLabel {
		if l != NoLabel {
			g.labelNodeOff[l+1]++
		}
	}
	prefixSum(g.labelNodeOff)
	g.labelNodes = make([]NodeID, g.labelNodeOff[nLabels])
	lnCur := cursors(g.labelNodeOff)
	for i, l := range g.nodeLabel {
		if l != NoLabel {
			g.labelNodes[lnCur[l]] = NodeID(i)
			lnCur[l]++
		}
	}

	g.typeNodeOff = make([]int32, nLabels+1)
	for _, ts := range g.nodeTypes {
		for _, t := range ts {
			g.typeNodeOff[t+1]++
		}
	}
	prefixSum(g.typeNodeOff)
	g.typeNodes = make([]NodeID, g.typeNodeOff[nLabels])
	tnCur := cursors(g.typeNodeOff)
	for i, ts := range g.nodeTypes {
		for _, t := range ts {
			g.typeNodes[tnCur[t]] = NodeID(i)
			tnCur[t]++
		}
	}
}

// prefixSum turns per-bucket counts (stored at index i+1) into CSR
// offsets in place.
func prefixSum(off []int32) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}

// cursors returns a mutable copy of the offsets to use as fill positions.
func cursors(off []int32) []int32 {
	cur := make([]int32, len(off)-1)
	copy(cur, off[:len(off)-1])
	return cur
}
