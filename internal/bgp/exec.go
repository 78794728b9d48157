package bgp

import (
	"cmp"
	"context"
	"errors"
	"slices"

	"ctpquery/internal/graph"
	"ctpquery/internal/storage"
)

// Stats counts the work one evaluation did.
type Stats struct {
	// Examined counts edges read from an index or an adjacency list and
	// checked against a pattern.
	Examined int
	// Rows counts rows materialized, intermediate results included.
	Rows int
}

// checkEvery is how much work (edges examined plus rows emitted) passes
// between two looks at the context.
const checkEvery = 4096

// executor runs the steps of one evaluation, left to right, each step's
// output being the next one's input.
type executor struct {
	ctx       context.Context
	g         *graph.Graph
	st        Stats
	nextCheck int     // work count at which the context is looked at next
	slab      []int32 // rows are cut from here, one allocation per slabRows
}

const slabRows = 256

// row returns a fresh zeroed row of width w.
func (x *executor) row(w int) []int32 {
	if len(x.slab) < w {
		x.slab = make([]int32, w*slabRows)
	}
	r := x.slab[:w:w]
	x.slab = x.slab[w:]
	return r
}

// charge accounts for work done and, every checkEvery units, reports a
// cancelled context. An expired deadline does not interrupt evaluation:
// the engine answers it with the partial results of its time-bounded CTP
// searches, which need the complete binding tables.
func (x *executor) charge(examined, rows int) error {
	x.st.Examined += examined
	x.st.Rows += rows
	if x.st.Examined+x.st.Rows < x.nextCheck {
		return nil
	}
	x.nextCheck = x.st.Examined + x.st.Rows + checkEvery
	if err := x.ctx.Err(); errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// matches checks edge e against the pattern's three predicates; a caller
// that reached e through a source (target) node it already checked skips
// that predicate.
func (p *pattern) matches(g *graph.Graph, e graph.EdgeID, ed graph.Edge, skipSrc, skipDst bool) bool {
	if !p.edge.MatchEdge(g, e, ed.Label) {
		return false
	}
	// A variable repeated inside the pattern binds one element.
	if p.srcVar != "" && p.srcVar == p.dstVar && ed.Source != ed.Target {
		return false
	}
	return (skipSrc || p.src.MatchNode(g, ed.Source)) && (skipDst || p.dst.MatchNode(g, ed.Target))
}

// scan materializes the distinct bindings of one pattern, read through its
// cheapest own index; columns are the pattern's named variables.
func (x *executor) scan(p *pattern) (*storage.Table, error) {
	g := x.g
	out := storage.NewTable(p.cols...)
	if p.unsat() {
		return out, nil
	}
	srcCol, edgeCol, dstCol := out.Column(p.srcVar), out.Column(p.edgeVar), out.Column(p.dstVar)
	visit := func(edges []graph.EdgeID, skipSrc, skipDst bool) error {
		for len(edges) > 0 {
			chunk := edges[:min(len(edges), checkEvery)]
			edges = edges[len(chunk):]
			before := out.NumRows()
			for _, e := range chunk {
				ed := g.Edge(e)
				if !p.matches(g, e, ed, skipSrc, skipDst) {
					continue
				}
				row := x.row(len(p.cols))
				if srcCol >= 0 {
					row[srcCol] = int32(ed.Source)
				}
				if edgeCol >= 0 {
					row[edgeCol] = int32(e)
				}
				if dstCol >= 0 {
					row[dstCol] = int32(ed.Target)
				}
				out.AddRowOwned(row)
			}
			if err := x.charge(len(chunk), out.NumRows()-before); err != nil {
				return err
			}
		}
		return nil
	}
	switch p.scan {
	case ScanEdgeLabel:
		if err := visit(p.edge.IndexEdges(g), false, false); err != nil {
			return nil, err
		}
	case ScanSrcIndex:
		for _, n := range p.src.IndexNodes(g) {
			if !p.src.MatchNode(g, n) {
				continue
			}
			if err := visit(g.Out(n), true, false); err != nil {
				return nil, err
			}
		}
	case ScanDstIndex:
		for _, n := range p.dst.IndexNodes(g) {
			if !p.dst.MatchNode(g, n) {
				continue
			}
			if err := visit(g.In(n), false, true); err != nil {
				return nil, err
			}
		}
	default:
		// Full ID-space scan: on a live epoch view, skip deleted slots.
		chunk := make([]graph.EdgeID, 0, checkEvery)
		for i, n := 0, g.NumEdges(); i < n; i++ {
			if g.EdgeAlive(graph.EdgeID(i)) {
				chunk = append(chunk, graph.EdgeID(i))
			}
			if len(chunk) == cap(chunk) || i == n-1 {
				if err := visit(chunk, false, false); err != nil {
					return nil, err
				}
				chunk = chunk[:0]
			}
		}
	}
	// Edge IDs make rows distinct; without them parallel edges and
	// projected-away positions leave duplicates.
	if p.edgeVar == "" {
		out = out.Distinct()
	}
	return out, nil
}

// join extends acc by one pattern. A pattern sharing a variable with acc
// is read through the elements acc already bound (a bind join) when that
// reads fewer edges than the pattern's own scan would — the summed degrees
// of the bound nodes against the size of the index the scan goes through,
// both taken from what is in hand at this point of the run; otherwise it
// is scanned on its own and hash-joined. A pattern sharing none is scanned
// and paired with every row.
func (x *executor) join(acc *storage.Table, p *pattern) (*storage.Table, error) {
	if acc.NumRows() == 0 {
		return storage.NewTable(joinedCols(acc, p)...), nil
	}
	access, keyCol, keys, cost := x.chooseBind(acc, p)
	if access != CrossProduct && x.scanReadsMoreThan(p, cost) {
		return x.bind(acc, p, access, keys, keyCol)
	}
	t, err := x.scan(p)
	if err != nil {
		return nil, err
	}
	return storage.NaturalJoinTick(acc, t, func(rows int) error { return x.charge(0, rows) })
}

// scanReadsMoreThan reports whether p's scan would read more than limit
// edges, summing index-node degrees only until the answer is known.
func (x *executor) scanReadsMoreThan(p *pattern, limit int) bool {
	if p.unsat() {
		return false
	}
	sum := func(nodes []graph.NodeID, adjacent func(graph.NodeID) []graph.EdgeID) bool {
		total := 0
		for _, n := range nodes {
			if total += len(adjacent(n)); total > limit {
				return true
			}
		}
		return false
	}
	switch p.scan {
	case ScanEdgeLabel:
		return len(p.edge.IndexEdges(x.g)) > limit
	case ScanSrcIndex:
		return sum(p.src.IndexNodes(x.g), x.g.Out)
	case ScanDstIndex:
		return sum(p.dst.IndexNodes(x.g), x.g.In)
	}
	return x.g.NumEdges() > limit
}

// chooseBind picks the bound variable a bind join of p would go through —
// an edge variable if acc binds it, else the node variable whose bound
// nodes have the smaller total degree — and returns its distinct values,
// its column in acc, and the number of edges the bind would examine.
// CrossProduct means acc binds none of p's variables.
func (x *executor) chooseBind(acc *storage.Table, p *pattern) (access Access, keyCol int, keys []int32, cost int) {
	access = CrossProduct
	if col := acc.Column(p.edgeVar); col >= 0 {
		keys, _ = acc.ColumnValues(p.edgeVar)
		return BindEdge, col, keys, len(keys)
	}
	consider := func(a Access, v string, adjacent func(graph.NodeID) []graph.EdgeID) {
		col := acc.Column(v)
		if col < 0 {
			return
		}
		ks, _ := acc.ColumnValues(v)
		c := 0
		for _, k := range ks {
			c += len(adjacent(graph.NodeID(k)))
		}
		if access == CrossProduct || c < cost {
			access, keyCol, keys, cost = a, col, ks, c
		}
	}
	consider(BindOut, p.srcVar, x.g.Out)
	consider(BindIn, p.dstVar, x.g.In)
	return access, keyCol, keys, cost
}

// joinedCols is acc's columns followed by p's variables acc does not bind.
func joinedCols(acc *storage.Table, p *pattern) []string {
	cols := append([]string(nil), acc.Cols()...)
	for _, v := range p.cols {
		if !acc.HasColumn(v) {
			cols = append(cols, v)
		}
	}
	return cols
}

// match is one edge a bind join found for a key.
type match struct {
	e        graph.EdgeID
	src, dst graph.NodeID
}

// bind joins acc with p through the distinct values keys of acc's column
// keyCol: each key's edges are read and checked once, then every acc row
// is extended by the matches of its key. acc's rows being distinct, so
// are the output's.
func (x *executor) bind(acc *storage.Table, p *pattern, access Access, keys []int32, keyCol int) (*storage.Table, error) {
	g := x.g
	out := storage.NewTable(joinedCols(acc, p)...)
	// A column below width is bound by acc and compared per row; one at or
	// above it is new and written; -1 is an anonymous position.
	width := len(acc.Cols())
	srcCol, edgeCol, dstCol := out.Column(p.srcVar), out.Column(p.edgeVar), out.Column(p.dstVar)
	// Without an edge variable, matches of one key that agree on the far
	// endpoint yield the same row, and only one is kept; when the far
	// endpoint is anonymous too, the first match settles the key.
	farCol := dstCol
	far := func(m match) graph.NodeID { return m.dst }
	if access == BindIn {
		farCol = srcCol
		far = func(m match) graph.NodeID { return m.src }
	}
	dedup := access != BindEdge && p.edgeVar == ""

	var matches []match
	var one [1]graph.EdgeID
	off := make([]int32, len(keys)+1)
	for i, k := range keys {
		off[i] = int32(len(matches))
		var cands []graph.EdgeID
		switch access {
		case BindEdge:
			one[0] = graph.EdgeID(k)
			cands = one[:]
		case BindOut:
			if p.src.MatchNode(g, graph.NodeID(k)) {
				cands = g.Out(graph.NodeID(k))
			}
		case BindIn:
			if p.dst.MatchNode(g, graph.NodeID(k)) {
				cands = g.In(graph.NodeID(k))
			}
		}
		examined := 0
		for _, e := range cands {
			examined++
			ed := g.Edge(e)
			if p.matches(g, e, ed, access == BindOut, access == BindIn) {
				matches = append(matches, match{e, ed.Source, ed.Target})
				if dedup && farCol < 0 {
					break
				}
			}
		}
		if err := x.charge(examined, 0); err != nil {
			return nil, err
		}
		if span := matches[off[i]:]; dedup && len(span) > 1 {
			slices.SortFunc(span, func(a, b match) int { return cmp.Compare(far(a), far(b)) })
			span = slices.CompactFunc(span, func(a, b match) bool { return far(a) == far(b) })
			matches = matches[:int(off[i])+len(span)]
		}
	}
	off[len(keys)] = int32(len(matches))

	agrees := func(row []int32, col int, v int32) bool { return col < 0 || col >= width || row[col] == v }
	for r := 0; r < acc.NumRows(); r++ {
		in := acc.Row(r)
		i, _ := slices.BinarySearch(keys, in[keyCol])
		emitted := 0
		for _, m := range matches[off[i]:off[i+1]] {
			if !agrees(in, srcCol, int32(m.src)) || !agrees(in, edgeCol, int32(m.e)) || !agrees(in, dstCol, int32(m.dst)) {
				continue
			}
			row := x.row(len(out.Cols()))
			copy(row, in)
			if srcCol >= width {
				row[srcCol] = int32(m.src)
			}
			if edgeCol >= width {
				row[edgeCol] = int32(m.e)
			}
			if dstCol >= width {
				row[dstCol] = int32(m.dst)
			}
			out.AddRowOwned(row)
			emitted++
		}
		if err := x.charge(0, emitted); err != nil {
			return nil, err
		}
	}
	return out, nil
}
