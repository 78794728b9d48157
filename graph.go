package ctpquery

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"ctpquery/internal/gen"
	"ctpquery/internal/graph"
)

// NodeID identifies a graph node. IDs are dense, starting at 0, in
// insertion order.
type NodeID int32

// EdgeID identifies a graph edge. IDs are dense, starting at 0, in
// insertion order.
type EdgeID int32

// Graph is a labeled graph (the data model of Definition 2.1: directed
// labeled edges, optional node types and string properties). Build one
// with a GraphBuilder or load one with LoadTriples, LoadSnapshot, or
// OpenGraph; the result is frozen — safe for any number of concurrent
// readers. Graph.Live upgrades a frozen graph to a mutable one (see
// Mutate, Snapshot, Epoch): readers then see immutable per-epoch views,
// so concurrency stays free.
type Graph struct {
	g     *graph.Graph // frozen graph, or the pinned view of a Snapshot
	store *graph.Store // non-nil for live graphs; g is nil then
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.view().NumNodes() }

// NumEdges returns the number of edges. On a live graph this counts the
// edge ID space, which may include slots of deleted edges until the next
// compaction; Stats reports live edges.
func (g *Graph) NumEdges() int { return g.view().NumEdges() }

// NodeLabel returns the label of node n ("" for unlabeled nodes).
func (g *Graph) NodeLabel(n NodeID) string { return g.view().NodeLabel(graph.NodeID(n)) }

// NodeByLabel returns the unique node labeled s; ok is false when the
// label is absent or shared by several nodes.
func (g *Graph) NodeByLabel(s string) (n NodeID, ok bool) {
	id, ok := g.view().NodeByLabel(s)
	return NodeID(id), ok
}

// Stats returns a one-line summary of the graph (node/edge/label counts,
// degree statistics).
func (g *Graph) Stats() string { return graph.ComputeStats(g.view()).String() }

// Fingerprint returns a 64-bit digest of the graph's logical content
// (labels, types, edges, properties). Two loads of the same data —
// including a snapshot or triples round trip — produce the same
// fingerprint, so it identifies the graph across processes; the
// query-result cache keys on it, which is also why cached entries never
// need invalidating: a different graph is a different fingerprint. On a
// live graph the fingerprint advances deterministically with every
// mutation batch (and survives compaction, which changes no content), so
// each epoch keys its own cache entries.
func (g *Graph) Fingerprint() uint64 { return g.view().Fingerprint() }

// WriteTriples writes the graph in the line-oriented triple text format
// ("src edgeLabel dst", "node type t" for types; see LoadTriples). Graphs
// with duplicate or empty node labels cannot be serialized this way.
func (g *Graph) WriteTriples(w io.Writer) error { return graph.WriteTriples(w, g.view()) }

// WriteSnapshot writes the graph in the compact binary snapshot format
// read by LoadSnapshot; unlike the triple text format it round-trips any
// graph, including ones with duplicate labels and properties. A live
// graph serializes the epoch current at the call.
func (g *Graph) WriteSnapshot(w io.Writer) error { return graph.WriteSnapshot(w, g.view()) }

// GraphBuilder assembles a Graph. It is not safe for concurrent use, and
// must not be reused after Build.
type GraphBuilder struct {
	b *graph.Builder
}

// NewGraphBuilder returns an empty GraphBuilder.
func NewGraphBuilder() *GraphBuilder { return &GraphBuilder{b: graph.NewBuilder()} }

// AddNode adds a node with the given label and returns its ID. Labels
// need not be unique; reference the node by the returned ID.
func (b *GraphBuilder) AddNode(label string) NodeID { return NodeID(b.b.AddNode(label)) }

// AddType attaches a type to node n (duplicates are ignored). Types are
// matched by the EQL type(?v) pseudo-property.
func (b *GraphBuilder) AddType(n NodeID, typ string) { b.b.AddType(graph.NodeID(n), typ) }

// AddEdge adds a directed edge src --label--> dst and returns its ID.
func (b *GraphBuilder) AddEdge(src NodeID, label string, dst NodeID) EdgeID {
	return EdgeID(b.b.AddEdge(graph.NodeID(src), label, graph.NodeID(dst)))
}

// SetNodeProp sets string property p of node n, matched by the EQL
// p(?v) predicate syntax.
func (b *GraphBuilder) SetNodeProp(n NodeID, p, v string) {
	b.b.SetNodeProp(graph.NodeID(n), p, v)
}

// SetEdgeProp sets string property p of edge e.
func (b *GraphBuilder) SetEdgeProp(e EdgeID, p, v string) {
	b.b.SetEdgeProp(graph.EdgeID(e), p, v)
}

// Build freezes the builder into an immutable Graph, computing the
// adjacency lists and label/type indexes queries use. The builder must
// not be used afterwards.
func (b *GraphBuilder) Build() *Graph { return &Graph{g: b.b.Build()} }

// LoadTriples parses the whitespace-separated triple text format into a
// Graph: one "src edgeLabel dst" triple per line, double quotes around
// fields containing spaces, '#' comments, and "n type t" (or the RDF
// shorthand "n a t") declaring node types. Node identity is by label.
func LoadTriples(r io.Reader) (*Graph, error) {
	g, err := graph.LoadTriples(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// LoadSnapshot reads a binary snapshot previously written by
// Graph.WriteSnapshot.
func LoadSnapshot(r io.Reader) (*Graph, error) {
	g, err := graph.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// OpenGraph loads a graph file, detecting the format by content: files
// beginning with the binary snapshot magic ("CTPG" — .snap/.ctpg files
// written by Graph.WriteSnapshot) are read as snapshots regardless of
// extension; anything else parses as triple text. A snapshot loads as a
// bulk decode plus a concurrent index build, with no text to parse, so a
// large server graph starts fast no matter what the snapshot was named.
func OpenGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var magic [4]byte
	n, err := io.ReadFull(f, magic[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if n == len(magic) && string(magic[:]) == "CTPG" {
		return LoadSnapshot(f)
	}
	return LoadTriples(f)
}

// SampleGraph returns the running-example graph of the paper's Figure 1:
// twelve nodes (entrepreneurs, companies, countries, politicians, and a
// party) and nineteen labeled edges. Handy for experiments and tests.
func SampleGraph() *Graph { return &Graph{g: gen.Sample()} }

// RandomGraph builds a connected random graph with n nodes (labeled
// "n0".."n<n-1>") and at least e edges, drawing edge labels from labels
// (default "t") with directions chosen at random. The same seed always
// produces the same graph.
func RandomGraph(n, e int, labels []string, seed int64) *Graph {
	return &Graph{g: gen.Random(n, e, labels, rand.New(rand.NewSource(seed)))}
}

// label renders node n for messages: its label, or #id when unlabeled.
func (g *Graph) label(n graph.NodeID) string {
	if l := g.view().NodeLabel(n); l != "" {
		return l
	}
	return fmt.Sprintf("#%d", n)
}
