package ctpquery

import (
	"math"
	"strconv"
	"strings"
	"time"

	"ctpquery/internal/engine"
	"ctpquery/internal/eql"
	"ctpquery/internal/graph"
	"ctpquery/internal/score"
	"ctpquery/internal/tree"
	"ctpquery/internal/wire"
)

// Results is the outcome of executing a query: a table of rows, one
// column per projected head variable. Columns bound by a CONNECT clause's
// AS variable hold connecting trees; every other column holds a graph
// node. Results are immutable and safe for concurrent readers.
type Results struct {
	g   *Graph
	q   *eql.Query
	res *engine.Result

	treeCols map[string]bool

	// slot is set when the DB's cache admits the run (Memo).
	slot *cacheSlot
}

func newResults(g *Graph, q *eql.Query, res *engine.Result) *Results {
	tc := make(map[string]bool, len(q.CTPs))
	for _, tv := range q.TreeVars() {
		tc[tv] = true
	}
	return &Results{g: g, q: q, res: res, treeCols: tc}
}

// Graph returns the graph view this run executed against — on a live
// graph, the epoch pinned when the query started. Render rows and trees
// through it (not through the DB's possibly-advanced live graph) for a
// consistent picture.
func (r *Results) Graph() *Graph { return r.g }

// Epoch returns the epoch the run was pinned to (0 for frozen graphs).
func (r *Results) Epoch() uint64 { return r.g.Epoch() }

// Len returns the number of result rows.
func (r *Results) Len() int { return r.res.Table.NumRows() }

// Columns returns the column (head variable) names, in projection order.
func (r *Results) Columns() []string { return append([]string(nil), r.res.Table.Cols()...) }

// IsTreeColumn reports whether the named column holds connecting trees
// (it is the AS variable of a CONNECT clause) rather than nodes.
func (r *Results) IsTreeColumn(col string) bool { return r.treeCols[col] }

// Row returns the i-th result row.
func (r *Results) Row(i int) Row { return Row{r: r, i: i} }

// Each calls fn on every row, in order, stopping early if fn returns
// false.
func (r *Results) Each(fn func(Row) bool) {
	for i := 0; i < r.Len(); i++ {
		if !fn(Row{r: r, i: i}) {
			return
		}
	}
}

// ApproxSize estimates the heap bytes this result set retains: the row
// table, the column names, and the connecting trees. A result tree is a
// detached copy — its struct and three exact-size slices, no provenance
// (core's collector copies it out of the search's arena) — so what is
// charged per tree is what the tree holds alive. Interned graph data is
// not charged at all, so the number is an estimate, not an exact
// accounting — the query-result cache uses it to budget entries.
func (r *Results) ApproxSize() int64 {
	const (
		resultsOverhead = 256 // Results + engine.Result + slice headers + cache slot
		rowOverhead     = 24  // []int32 header per row
		// A detached tree.Tree: the 112-byte struct (slice headers
		// included), one 8-byte Sat word (m <= 64), and ~16 bytes the
		// allocator's size classes round its three small slices up by.
		treeOverhead = 136
	)
	size := int64(resultsOverhead)
	cols := r.res.Table.Cols()
	for _, c := range cols {
		size += int64(len(c)) + 16
	}
	size += int64(r.res.Table.NumRows()) * (rowOverhead + 4*int64(len(cols)))
	for _, t := range r.res.Trees {
		size += treeOverhead + 4*int64(len(t.Edges)) + 4*int64(len(t.Nodes))
	}
	return size
}

// MergeKey returns a canonical identity-and-order key for row i — the
// scatter-gather merge contract of internal/cluster. Two shards holding
// the same graph (replicas, or partitions cut from one shared node/edge
// dictionary) compute the identical key for the identical logical row,
// so a coordinator can dedup replica overlap and order a gathered union
// deterministically by plain string comparison. Per tree column the key
// embeds the PR 4 collector's canonical order — score descending, then
// tree size, then the sorted edge-set key (node identity for 0-edge
// trees) — each component encoded so lexicographic key order equals the
// collector's comparator; node columns append their bound node IDs.
// Every component is hex-encoded ASCII: the key must survive a JSON
// round-trip byte-for-byte (serve ships it as row_keys), and
// encoding/json silently rewrites invalid UTF-8 to U+FFFD, which would
// both mangle the order and let distinct keys collide. Keys are only
// comparable between results of the same query over the same graph
// build.
func (r *Results) MergeKey(i int) string {
	var b strings.Builder
	row := r.res.Table.Row(i)
	for ci, col := range r.res.Table.Cols() {
		if ci > 0 {
			b.WriteByte('|')
		}
		if !r.treeCols[col] {
			b.WriteByte('n')
			appendHex(&b, uint64(uint32(row[ci])), 8)
			continue
		}
		t := r.res.Tree(row[ci])
		if t == nil {
			b.WriteString("t-")
			continue
		}
		var sc float64
		if f := r.scoreFor(col); f != nil {
			sc = f(r.g.view(), t)
		}
		appendScoreDesc(&b, sc)
		b.WriteByte(':')
		appendHex(&b, uint64(uint32(t.Size())), 8)
		b.WriteByte(':')
		if t.Size() == 0 {
			b.WriteByte('n')
			appendHexBytes(&b, tree.EdgeSetKey([]graph.EdgeID{graph.EdgeID(t.Root)}))
		} else {
			// Deliberately no root component: the search dedups results by
			// edge-set signature, so the root of a multi-edge tree is a
			// discovery artifact (two replicas — or two runs — may represent
			// the same logical result with different roots). Keying on the
			// edge set alone makes a cross-replica merge collapse those
			// representations instead of double-counting them.
			appendHexBytes(&b, tree.EdgeSetKey(t.Edges))
		}
	}
	return b.String()
}

// scoreFor resolves the score function ranking the CTP bound to col
// (nil when that CONNECT names no SCORE).
func (r *Results) scoreFor(col string) func(*graph.Graph, *tree.Tree) float64 {
	for _, c := range r.q.CTPs {
		if c.TreeVar == col && c.Filters.Score != "" {
			if f, ok := score.Get(c.Filters.Score); ok {
				return f
			}
		}
	}
	return nil
}

// appendHex writes v zero-padded to width hex digits, so lexicographic
// order over the digits equals numeric order.
func appendHex(b *strings.Builder, v uint64, width int) {
	s := strconv.FormatUint(v, 16)
	for pad := width - len(s); pad > 0; pad-- {
		b.WriteByte('0')
	}
	b.WriteString(s)
}

// appendHexBytes hex-encodes raw key bytes (tree.EdgeSetKey's
// little-endian edge IDs). Hex expands each byte to a fixed-width digit
// pair, so lexicographic order over the encoding equals lexicographic
// order over the raw bytes — the collector's tie-break comparator —
// while keeping the key valid ASCII for a JSON round-trip.
func appendHexBytes(b *strings.Builder, key string) {
	const digits = "0123456789abcdef"
	for i := 0; i < len(key); i++ {
		b.WriteByte(digits[key[i]>>4])
		b.WriteByte(digits[key[i]&0xf])
	}
}

// appendScoreDesc writes a float64 encoded so lexicographic order over
// the 16 hex digits equals DESCENDING numeric order — the collector
// sorts score-high-first. The standard order-embedding (flip the sign
// bit of positives, complement negatives) makes the bits ascend with
// the value; complementing once more reverses it.
func appendScoreDesc(b *strings.Builder, s float64) {
	bits := math.Float64bits(s)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	appendHex(b, ^bits, 16)
}

// TimedOut reports whether any CTP search hit its time bound (a TIMEOUT
// filter, Options.DefaultTimeout, or a context deadline); the rows are
// then a — still valid — subset of the full answer.
func (r *Results) TimedOut() bool { return r.res.TimedOut() }

// Truncated reports whether any CTP search stopped early for a reason
// other than time: a LIMIT filter or a StreamFunc returning false.
func (r *Results) Truncated() bool { return r.res.Truncated() }

// Timings returns the per-phase evaluation times: BGP matching, CTP
// connection search, and final join + projection.
func (r *Results) Timings() (bgp, ctp, join time.Duration) {
	return r.res.BGPTime, r.res.CTPTime, r.res.JoinTime
}

// SearchStats is the search-effort report of a query: how many provenance
// trees the CTP kernels built and kept, how hard the queues and the
// allocator were pushed, what BGP evaluation read, and, for parallel
// searches, each worker's share. It is the type ctpserve puts on /query
// and folds into /stats (with SearchStats.Add), so the library and the
// wire report one schema.
type SearchStats = wire.Search

// WorkerSearchStats is one parallel-search worker's share of a query's
// effort; see DESIGN.md §6 for the runtime it describes.
type WorkerSearchStats = wire.Worker

// SearchStats returns the query's report: BGP effort plus every CONNECT
// clause's, folded. Each call returns a fresh value.
func (r *Results) SearchStats() SearchStats { return r.res.Report() }

// Row is one result row. The zero Row is invalid; obtain rows from
// Results.Row or Results.Each.
type Row struct {
	r *Results
	i int
}

// Node returns the node bound to col; ok is false for unknown columns and
// for tree columns.
func (w Row) Node(col string) (n NodeID, ok bool) {
	c := w.r.res.Table.Column(col)
	if c < 0 || w.r.treeCols[col] {
		return 0, false
	}
	return NodeID(w.r.res.Table.Row(w.i)[c]), true
}

// Label returns the label of the node bound to col ("" for unknown or
// tree columns and for unlabeled nodes).
func (w Row) Label(col string) string {
	n, ok := w.Node(col)
	if !ok {
		return ""
	}
	return w.r.g.NodeLabel(n)
}

// Tree returns the connecting tree bound to col, or nil when col is not a
// tree column.
func (w Row) Tree(col string) *Tree {
	c := w.r.res.Table.Column(col)
	if c < 0 || !w.r.treeCols[col] {
		return nil
	}
	t := w.r.res.Tree(w.r.res.Table.Row(w.i)[c])
	if t == nil {
		return nil
	}
	return &Tree{g: w.r.g, t: t}
}

// String renders the row with node labels resolved, e.g.
// "?x=Alice ?w={2 edges}".
func (w Row) String() string { return w.r.res.FormatRow(w.r.g.view(), w.r.q, w.i) }

// Tree is one connecting tree: a set of graph edges forming a tree that
// joins one node from each CONNECT member's seed set (Definition 2.5).
// Trees are immutable.
type Tree struct {
	g *Graph
	t *tree.Tree
}

// Size returns the number of edges; a single-node tree (a node matching
// every member at once) has size 0.
func (t *Tree) Size() int { return t.t.Size() }

// Root returns the tree's root node.
func (t *Tree) Root() NodeID { return NodeID(t.t.Root) }

// Nodes returns the tree's nodes, sorted by ID.
func (t *Tree) Nodes() []NodeID {
	out := make([]NodeID, len(t.t.Nodes))
	for i, n := range t.t.Nodes {
		out[i] = NodeID(n)
	}
	return out
}

// TreeEdge is one directed, labeled edge of a connecting tree, with the
// endpoint labels resolved.
type TreeEdge struct {
	Src      NodeID
	Dst      NodeID
	SrcLabel string
	Label    string
	DstLabel string
}

// Edges returns the tree's edges, sorted by edge ID, with labels
// resolved.
func (t *Tree) Edges() []TreeEdge {
	out := make([]TreeEdge, len(t.t.Edges))
	for i, e := range t.t.Edges {
		ed := t.g.view().Edge(e)
		out[i] = TreeEdge{
			Src:      NodeID(ed.Source),
			Dst:      NodeID(ed.Target),
			SrcLabel: t.g.label(ed.Source),
			Label:    t.g.view().EdgeLabel(e),
			DstLabel: t.g.label(ed.Target),
		}
	}
	return out
}

// Format renders the tree one edge per line, e.g.
//
//	Carole -[founded]-> OrgC
//	Doug -[investsIn]-> OrgC
//
// Single-node trees render as the node label.
func (t *Tree) Format() string { return engine.FormatTree(t.g.view(), t.t) }
