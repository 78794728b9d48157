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

	// traceID is the trace the run executed under ("" without a tracer);
	// surfaced through SearchStats so cached results keep pointing at the
	// populating run's trace in the flight recorder.
	traceID string
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
		resultsOverhead = 256 // Results + engine.Result + slice headers
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

// SearchStats is the aggregated search-effort report over every CONNECT
// clause of a query: how many provenance trees the CTP kernels built, how
// hard the queues and the memory allocator were pushed. Servers surface it
// per query so hot-path regressions are observable in production, not
// only under the benchmarks.
type SearchStats struct {
	// TreesGenerated counts every provenance tree constructed, including
	// ones discarded as duplicates.
	TreesGenerated int
	// TreesKept counts the provenances retained (the paper's Figure 11
	// metric).
	TreesKept int
	// TreesRecycled counts rejected candidates — duplicates whose space
	// the search's arena took back, or that were never built.
	TreesRecycled int
	// PeakTrees is the largest number of live provenances at any instant,
	// summed over CONNECT clauses.
	PeakTrees int
	// PeakQueueLen is the largest grow-queue length over all clauses.
	PeakQueueLen int
	// Allocations is the total heap allocation count of the searches,
	// sampled only when Options.TrackAllocs is set (0 otherwise).
	Allocations uint64

	// Parallelism is the largest worker count any CONNECT search ran with
	// (0 when every search took the sequential kernel).
	Parallelism int
	// Workers aggregates per-worker effort across the query's CONNECT
	// searches, index-aligned (worker 0 of every search sums into entry
	// 0). Empty for sequential queries.
	Workers []WorkerSearchStats

	// BGPExamined counts the edges BGP evaluation read from an index or an
	// adjacency list and checked against a pattern; BGPRows the rows it
	// materialized, intermediate join results included.
	BGPExamined int
	BGPRows     int

	// BGPNS, CTPNS, and JoinNS are the per-stage evaluation times in
	// nanoseconds — the Timings breakdown embedded here so one struct
	// carries a query's full effort-and-latency report.
	BGPNS, CTPNS, JoinNS int64
	// TraceID identifies the run's trace in the executing process's
	// flight recorder (GET /debug/traces?id=); empty when the run had no
	// tracer. On a cache hit it is the trace of the run that populated
	// the entry — the request that actually did the work.
	TraceID string
}

// WorkerSearchStats is one parallel-search worker's share of a query's
// effort; see ctpquery's DESIGN.md §6 for the runtime it describes.
type WorkerSearchStats struct {
	// Ops counts grow opportunities and exchange tasks processed.
	Ops int
	// Kept counts provenance trees this worker retained.
	Kept int
	// Shipped counts tasks routed to other workers' shards.
	Shipped int
	// Stolen counts ops taken from other workers' queues while idle.
	Stolen int
	// BusyNS is the worker's thread CPU time (0 where unsupported); the
	// max over workers approximates the search's critical path.
	BusyNS int64
	// WallNS is the worker's wall time from spawn to drain — what the
	// tracer renders as the worker's span.
	WallNS int64
}

// CostUnits collapses the report into one scalar effort number — the
// feedback signal the admission estimator (internal/admission) learns
// observed per-shape costs from. Units are provenance-tree
// constructions, the paper's effort metric, plus one unit per 64 edges
// BGP evaluation examined — the rate the estimator's static model
// charges a pattern scan at; a query that did neither still reports 1 so
// downstream ratios stay finite.
func (s SearchStats) CostUnits() float64 {
	u := float64(s.TreesGenerated) + float64(s.BGPExamined)/64
	if u < 1 {
		u = 1
	}
	return u
}

// Add folds o into s: effort counters and stage times sum, PeakQueueLen
// and Parallelism keep the larger value, and workers sum index-aligned.
// PeakTrees sums too — the searches of one query may be live together;
// TraceID stays the receiver's. It is the one fold behind both a query's
// report (over its CONNECT clauses) and a server's totals (over queries).
func (s *SearchStats) Add(o SearchStats) {
	s.TreesGenerated += o.TreesGenerated
	s.TreesKept += o.TreesKept
	s.TreesRecycled += o.TreesRecycled
	s.PeakTrees += o.PeakTrees
	if o.PeakQueueLen > s.PeakQueueLen {
		s.PeakQueueLen = o.PeakQueueLen
	}
	s.Allocations += o.Allocations
	if o.Parallelism > s.Parallelism {
		s.Parallelism = o.Parallelism
	}
	for i, w := range o.Workers {
		s.addWorker(i, w)
	}
	s.BGPExamined += o.BGPExamined
	s.BGPRows += o.BGPRows
	s.BGPNS += o.BGPNS
	s.CTPNS += o.CTPNS
	s.JoinNS += o.JoinNS
}

// addWorker sums w into the i-th worker entry, growing Workers to hold it.
func (s *SearchStats) addWorker(i int, w WorkerSearchStats) {
	for i >= len(s.Workers) {
		s.Workers = append(s.Workers, WorkerSearchStats{})
	}
	t := &s.Workers[i]
	t.Ops += w.Ops
	t.Kept += w.Kept
	t.Shipped += w.Shipped
	t.Stolen += w.Stolen
	t.BusyNS += w.BusyNS
	t.WallNS += w.WallNS
}

// SearchStats aggregates the per-CONNECT search statistics of the query.
func (r *Results) SearchStats() SearchStats {
	out := SearchStats{
		BGPExamined: r.res.BGPExamined,
		BGPRows:     r.res.BGPRows,
		BGPNS:       int64(r.res.BGPTime),
		CTPNS:       int64(r.res.CTPTime),
		JoinNS:      int64(r.res.JoinTime),
		TraceID:     r.traceID,
	}
	for _, st := range r.res.CTPStats {
		if st == nil {
			continue
		}
		out.Add(SearchStats{
			TreesGenerated: st.Created,
			TreesKept:      st.Kept(),
			TreesRecycled:  st.Recycled,
			PeakTrees:      st.PeakTrees,
			PeakQueueLen:   st.PeakQueueLen,
			Allocations:    st.Allocations,
			Parallelism:    st.Parallelism,
		})
		// Folded here rather than through Add's Workers, which would need
		// the core slice converted into a fresh one first.
		for i, ws := range st.Workers {
			out.addWorker(i, WorkerSearchStats(ws))
		}
	}
	return out
}

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
