// Package graph implements the labeled graph data model of Definition 2.1:
// a set of nodes and directed edges, each carrying a label from a label set
// that includes the empty label. Nodes may additionally carry zero or more
// types and arbitrary string properties, covering both RDF graphs and
// property graphs at the level of detail the connection-search algorithms
// need.
//
// Graphs built through a Builder are immutable after Build; all query-time
// structures (adjacency lists, label and type indexes, degrees) are computed
// at freeze time so concurrent readers need no locking. A live, mutating
// graph is a Store (store.go): every published epoch view is again an
// immutable *Graph — a copy of the frozen base plus a frozen delta overlay
// (overlay.go) — so readers of either kind of graph share one accessor
// surface and one concurrency story.
package graph

import "fmt"

// NodeID identifies a node. IDs are dense, starting at 0.
type NodeID int32

// EdgeID identifies an edge. IDs are dense, starting at 0.
type EdgeID int32

// LabelID identifies an interned label string.
type LabelID int32

// NoLabel is the interned ID of the empty label ε, which every graph
// contains (Definition 2.1 includes the empty label in the label set).
const NoLabel LabelID = 0

// Edge is a directed, labeled edge.
type Edge struct {
	Source NodeID
	Target NodeID
	Label  LabelID
}

// Graph is an immutable labeled graph. Create one with a Builder, or obtain
// an epoch view of a live Store.
//
// Adjacency and the label/type indexes use a CSR (compressed sparse row)
// layout: one flat ID array plus one offsets array per index, frozen at
// Build time. Accessors return sub-slices of the flat arrays, so the hot
// expansion path of a connection search never allocates and scans
// contiguous memory.
//
// An epoch view of a Store additionally carries a delta overlay
// (ov != nil): accessors consult the overlay's per-node and per-label
// records for nodes and labels the delta touched, and fall through to the
// base CSR arrays — copied into this struct — for everything else. Frozen
// graphs pay one nil-check per accessor for this.
type Graph struct {
	labels *Dict

	nodeLabel []LabelID
	nodeTypes [][]LabelID // sorted type IDs per node; nil when none
	edges     []Edge

	// CSR adjacency: the edges incident to node n occupy
	// adjEdges[adjOff[n]:adjOff[n+1]], ascending by edge ID; likewise for
	// the out and in directions.
	adjEdges []EdgeID
	adjOff   []int32
	outEdges []EdgeID
	outOff   []int32
	inEdges  []EdgeID
	inOff    []int32

	// Label and type indexes, CSR keyed by the dense interned LabelID:
	// nodes labeled l occupy labelNodes[labelNodeOff[l]:labelNodeOff[l+1]],
	// ascending by node ID. Unlabeled nodes (ε) are not indexed; edges are
	// indexed under every label including ε.
	labelNodes   []NodeID
	labelNodeOff []int32
	labelEdges   []EdgeID
	labelEdgeOff []int32
	typeNodes    []NodeID
	typeNodeOff  []int32

	nodeProps map[string]map[NodeID]string
	edgeProps map[string]map[EdgeID]string

	// fingerprint digests the logical content: frozen at Build time for
	// built graphs, chained per epoch for Store views; see Fingerprint
	// (fingerprint.go).
	fingerprint uint64

	// epoch is the Store epoch this view was published at; 0 for graphs
	// frozen by Build.
	epoch uint64

	// ov is the delta overlay of a Store epoch view; nil for graphs frozen
	// by Build and for views whose delta is empty.
	ov *overlay
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if g.ov != nil {
		return len(g.nodeLabel) + len(g.ov.addedLabel)
	}
	return len(g.nodeLabel)
}

// NumEdges returns the size of the edge-ID space: every EdgeID in
// [0, NumEdges) may be passed to Edge and friends. On a Store epoch view
// this includes edges deleted by the delta — full ID-space scans must skip
// IDs for which EdgeAlive is false; the adjacency and label indexes never
// contain dead edges.
func (g *Graph) NumEdges() int {
	if g.ov != nil {
		return len(g.edges) + len(g.ov.deltaEdges)
	}
	return len(g.edges)
}

// EdgeAlive reports whether edge e is present in this view. Always true on
// graphs frozen by Build; on a Store epoch view it is false for edges the
// delta deleted (their IDs stay valid for Edge et al. so ID-indexed
// structures keep working, but they appear in no adjacency or label list).
func (g *Graph) EdgeAlive(e EdgeID) bool {
	if g.ov == nil {
		return true
	}
	return !g.ov.isDead(e)
}

// Epoch returns the Store epoch this view was published at, 0 for graphs
// frozen by Build (and for a Store's initial, unmutated view).
func (g *Graph) Epoch() uint64 { return g.epoch }

// NodeLabelID returns the interned label of node n.
func (g *Graph) NodeLabelID(n NodeID) LabelID {
	if g.ov != nil {
		if d := int(n) - len(g.nodeLabel); d >= 0 {
			return g.ov.addedLabel[d]
		}
	}
	return g.nodeLabel[n]
}

// NodeLabel returns the label string of node n.
func (g *Graph) NodeLabel(n NodeID) string { return g.labels.String(g.NodeLabelID(n)) }

// EdgeLabelID returns the interned label of edge e.
func (g *Graph) EdgeLabelID(e EdgeID) LabelID { return g.Edge(e).Label }

// EdgeLabel returns the label string of edge e.
func (g *Graph) EdgeLabel(e EdgeID) string { return g.labels.String(g.Edge(e).Label) }

// Edge returns the endpoints and label of e.
func (g *Graph) Edge(e EdgeID) Edge {
	if g.ov != nil {
		if d := int(e) - len(g.edges); d >= 0 {
			return g.ov.deltaEdges[d]
		}
	}
	return g.edges[e]
}

// Source returns the source node of e.
func (g *Graph) Source(e EdgeID) NodeID { return g.Edge(e).Source }

// Target returns the target node of e.
func (g *Graph) Target(e EdgeID) NodeID { return g.Edge(e).Target }

// Other returns the endpoint of e that is not n. It panics if n is not an
// endpoint of e; self-loops return n itself.
func (g *Graph) Other(e EdgeID, n NodeID) NodeID {
	ed := g.Edge(e)
	switch n {
	case ed.Source:
		return ed.Target
	case ed.Target:
		return ed.Source
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d", n, e))
}

// IncidentEdges returns all edges adjacent to n, in either direction, as
// a zero-alloc sub-slice of the CSR array, ascending by edge ID. The slice
// is shared; callers must not modify it.
func (g *Graph) IncidentEdges(n NodeID) []EdgeID {
	if g.ov != nil {
		if r := g.ov.nodes.get(int(n)); r != nil {
			return r.adj
		}
	}
	return g.adjEdges[g.adjOff[n]:g.adjOff[n+1]:g.adjOff[n+1]]
}

// OutEdges returns the edges whose source is n (zero-alloc sub-slice).
func (g *Graph) OutEdges(n NodeID) []EdgeID {
	if g.ov != nil {
		if r := g.ov.nodes.get(int(n)); r != nil {
			return r.out
		}
	}
	return g.outEdges[g.outOff[n]:g.outOff[n+1]:g.outOff[n+1]]
}

// InEdges returns the edges whose target is n (zero-alloc sub-slice).
func (g *Graph) InEdges(n NodeID) []EdgeID {
	if g.ov != nil {
		if r := g.ov.nodes.get(int(n)); r != nil {
			return r.in
		}
	}
	return g.inEdges[g.inOff[n]:g.inOff[n+1]:g.inOff[n+1]]
}

// Incident is an alias for IncidentEdges.
func (g *Graph) Incident(n NodeID) []EdgeID { return g.IncidentEdges(n) }

// Out is an alias for OutEdges.
func (g *Graph) Out(n NodeID) []EdgeID { return g.OutEdges(n) }

// In is an alias for InEdges.
func (g *Graph) In(n NodeID) []EdgeID { return g.InEdges(n) }

// Degree returns d_n, the number of edges adjacent to n in either
// direction. Section 4.6 uses it in the LESP pruning exemption.
func (g *Graph) Degree(n NodeID) int {
	if g.ov != nil {
		if r := g.ov.nodes.get(int(n)); r != nil {
			return len(r.adj)
		}
	}
	return int(g.adjOff[n+1] - g.adjOff[n])
}

// Labels exposes the label dictionary.
func (g *Graph) Labels() *Dict { return g.labels }

// LabelIDOf returns the interned ID for s, if s occurs in the graph.
func (g *Graph) LabelIDOf(s string) (LabelID, bool) { return g.labels.Lookup(s) }

// NodesWithLabel returns all nodes labeled l, ascending by node ID, as a
// zero-alloc CSR sub-slice. The slice is shared. Unlabeled nodes are not
// indexed: NodesWithLabel(NoLabel) is empty.
func (g *Graph) NodesWithLabel(l LabelID) []NodeID {
	if g.ov != nil {
		if r := g.ov.labels.get(int(l)); r != nil {
			return r.nodes
		}
	}
	if l <= NoLabel || int(l) >= len(g.labelNodeOff)-1 {
		return nil
	}
	return g.labelNodes[g.labelNodeOff[l]:g.labelNodeOff[l+1]:g.labelNodeOff[l+1]]
}

// EdgesWithLabel returns all edges labeled l (including ε), ascending by
// edge ID, as a zero-alloc CSR sub-slice. The slice is shared.
func (g *Graph) EdgesWithLabel(l LabelID) []EdgeID {
	if g.ov != nil {
		if r := g.ov.labels.get(int(l)); r != nil {
			return r.edges
		}
	}
	if l < 0 || int(l) >= len(g.labelEdgeOff)-1 {
		return nil
	}
	return g.labelEdges[g.labelEdgeOff[l]:g.labelEdgeOff[l+1]:g.labelEdgeOff[l+1]]
}

// NodesWithType returns all nodes having type t, ascending by node ID, as
// a zero-alloc CSR sub-slice. The slice is shared.
func (g *Graph) NodesWithType(t LabelID) []NodeID {
	if g.ov != nil {
		if r := g.ov.labels.get(int(t)); r != nil {
			return r.typed
		}
	}
	if t < 0 || int(t) >= len(g.typeNodeOff)-1 {
		return nil
	}
	return g.typeNodes[g.typeNodeOff[t]:g.typeNodeOff[t+1]:g.typeNodeOff[t+1]]
}

// NodeTypes returns the sorted type IDs of n (nil when none).
func (g *Graph) NodeTypes(n NodeID) []LabelID {
	if g.ov != nil {
		if r := g.ov.nodes.get(int(n)); r != nil {
			return r.types
		}
	}
	return g.nodeTypes[n]
}

// HasType reports whether node n carries type t.
func (g *Graph) HasType(n NodeID, t LabelID) bool {
	for _, x := range g.NodeTypes(n) {
		if x == t {
			return true
		}
		if x > t {
			return false
		}
	}
	return false
}

// NodeProp returns the value of property p on node n, if set. The label
// and type pseudo-properties are not served here; use NodeLabel/NodeTypes.
// Properties are frozen at Build time — the Store write path does not
// mutate them — so delta-added nodes have none.
func (g *Graph) NodeProp(p string, n NodeID) (string, bool) {
	m := g.nodeProps[p]
	if m == nil {
		return "", false
	}
	v, ok := m[n]
	return v, ok
}

// EdgeProp returns the value of property p on edge e, if set.
func (g *Graph) EdgeProp(p string, e EdgeID) (string, bool) {
	m := g.edgeProps[p]
	if m == nil {
		return "", false
	}
	v, ok := m[e]
	return v, ok
}

// NodeByLabel returns the unique node labeled s. It is a convenience for
// tests and examples working with small graphs; it returns false when the
// label is absent or ambiguous.
func (g *Graph) NodeByLabel(s string) (NodeID, bool) {
	l, ok := g.labels.Lookup(s)
	if !ok {
		return 0, false
	}
	ns := g.NodesWithLabel(l)
	if len(ns) != 1 {
		return 0, false
	}
	return ns[0], true
}

// Nodes returns all node IDs, 0..NumNodes-1. Intended for small graphs and
// tests; large scans should iterate by index instead.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, g.NumNodes())
	for i := range out {
		out[i] = NodeID(i)
	}
	return out
}
