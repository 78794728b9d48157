package bgp

import (
	"fmt"
	"slices"

	"ctpquery/internal/eql"
	"ctpquery/internal/graph"
)

// Access names how one step of a plan reaches its edges.
type Access int

// Access paths. The Scan* paths read a pattern through one of its own
// indexes; the Bind* paths read it through the adjacency of nodes (or the
// identity of edges) an earlier step already bound.
const (
	ScanEdgeLabel Access = iota // the edge-label index of the pattern's label constant
	ScanSrcIndex                // source nodes from a label/type index, then their out-edges
	ScanDstIndex                // target nodes from a label/type index, then their in-edges
	ScanAllEdges                // every live edge
	BindOut                     // out-edges of each bound source node
	BindIn                      // in-edges of each bound target node
	BindEdge                    // each bound edge, looked up directly
	HashJoin                    // scan the pattern, hash-join on the shared variables
	CrossProduct                // scan the pattern, pair every row (no shared variable)
)

func (a Access) String() string {
	switch a {
	case ScanEdgeLabel:
		return "scan edge-label index"
	case ScanSrcIndex:
		return "scan via src node index"
	case ScanDstIndex:
		return "scan via dst node index"
	case ScanAllEdges:
		return "scan all edges"
	case BindOut:
		return "out-adjacency"
	case BindIn:
		return "in-adjacency"
	case BindEdge:
		return "edge lookup"
	case HashJoin:
		return "hash join (bound set too large)"
	case CrossProduct:
		return "cross product (no shared variable)"
	}
	return fmt.Sprintf("Access(%d)", int(a))
}

// Step is one pattern's place in a plan: Plan's description of what
// Evaluate will do. The order and every Scan path are fixed by the
// planner; for a joined pattern Access is the planner's prediction from
// estimates, and the executor takes the same decision again from the
// sizes it observes.
type Step struct {
	Pattern int    // index into the BGP's Patterns
	Access  Access // how the step reaches its edges
	Var     string // the bound variable a Bind* access goes through
	Scan    Access // the pattern's own index path (used by every non-Bind access)
	Est     int    // estimated cardinality of the pattern on its own; orders the steps
	// ScanCost estimates the edges Scan reads: the label's edge count, the
	// indexed nodes times the graph's average degree, or every edge.
	ScanCost int
	// BindCost estimates the edges a bind join would read: estimated
	// distinct bindings of Var times the graph's average degree (for
	// BindEdge, the bindings themselves). 0 for the leading step and for
	// cross products.
	BindCost int
}

// pattern is an edge pattern compiled against one graph.
type pattern struct {
	idx            int // position in the BGP
	src, edge, dst eql.Compiled
	srcVar         string
	edgeVar        string
	dstVar         string
	cols           []string // the distinct named variables, src/edge/dst order
	est            int      // estimated cardinality: the smallest of the three selectivities
	scan           Access   // cheapest own index
}

// avgDegree is the graph's mean out-degree (equally, in-degree), rounded
// up and at least 1.
func avgDegree(g *graph.Graph) int {
	if n := g.NumNodes(); n > 0 && g.NumEdges() > n {
		return (g.NumEdges() + n - 1) / n
	}
	return 1
}

// scanCostEstimate estimates the edges p's scan reads, without touching
// the index lists.
func (p *pattern) scanCostEstimate(g *graph.Graph) int {
	if p.unsat() {
		return 0
	}
	switch p.scan {
	case ScanEdgeLabel:
		return p.edge.Card
	case ScanSrcIndex:
		return p.src.Card * avgDegree(g)
	case ScanDstIndex:
		return p.dst.Card * avgDegree(g)
	}
	return g.NumEdges()
}

func compile(g *graph.Graph, idx int, ep eql.EdgePattern) *pattern {
	p := &pattern{
		idx:     idx,
		src:     ep.Src.Compile(g, true),
		edge:    ep.Edge.Compile(g, false),
		dst:     ep.Dst.Compile(g, true),
		srcVar:  ep.Src.Var,
		edgeVar: ep.Edge.Var,
		dstVar:  ep.Dst.Var,
	}
	for _, v := range [3]string{p.srcVar, p.edgeVar, p.dstVar} {
		if v != "" && !slices.Contains(p.cols, v) {
			p.cols = append(p.cols, v)
		}
	}
	s, e, d := p.src.Card, p.edge.Card, p.dst.Card
	p.est = min(s, e, d) // 0 when a position is unsatisfiable
	switch {
	case e <= s && e <= d && e < g.NumEdges():
		p.scan = ScanEdgeLabel
	case s <= d && s < g.NumNodes():
		p.scan = ScanSrcIndex
	case d < g.NumNodes():
		p.scan = ScanDstIndex
	default:
		p.scan = ScanAllEdges
	}
	return p
}

// unsat reports whether no edge of the graph can match the pattern.
func (p *pattern) unsat() bool { return p.src.Unsat() || p.edge.Unsat() || p.dst.Unsat() }

// order arranges the patterns greedily: the pattern with the smallest
// estimate leads; each next pattern is the smallest-estimate one sharing a
// variable with those already placed, and only when none does (a
// disconnected BGP) the smallest overall, which becomes a cross product.
// Ties keep source order.
func order(ps []*pattern) []*pattern {
	out := make([]*pattern, 0, len(ps))
	placed := make([]bool, len(ps))
	var bound []string
	for len(out) < len(ps) {
		best, bestConn := -1, false
		for i, p := range ps {
			if placed[i] {
				continue
			}
			conn := sharesVar(p, bound)
			if best < 0 || conn && !bestConn || conn == bestConn && p.est < ps[best].est {
				best, bestConn = i, conn
			}
		}
		placed[best] = true
		out = append(out, ps[best])
		for _, v := range ps[best].cols {
			if !slices.Contains(bound, v) {
				bound = append(bound, v)
			}
		}
	}
	return out
}

func sharesVar(p *pattern, bound []string) bool {
	for _, v := range p.cols {
		if slices.Contains(bound, v) {
			return true
		}
	}
	return false
}

// Plan returns the evaluation order Evaluate follows on g and, per
// pattern, the access path it expects to take, without evaluating
// anything.
func Plan(g *graph.Graph, b eql.BGP) ([]Step, error) {
	ps, err := prepare(g, b)
	if err != nil {
		return nil, err
	}
	// bindings[v] estimates the distinct values bound to v so far: the
	// smallest estimate among the placed patterns that mention v.
	bindings := map[string]int{}
	steps := make([]Step, len(ps))
	for i, p := range ps {
		st := Step{Pattern: p.idx, Access: p.scan, Scan: p.scan, Est: p.est, ScanCost: p.scanCostEstimate(g)}
		if i > 0 {
			st.Access, st.Var, st.BindCost = predictJoin(p, bindings, avgDegree(g))
			if st.Access != CrossProduct && st.BindCost >= st.ScanCost {
				st.Access = HashJoin
			}
		}
		steps[i] = st
		for _, v := range p.cols {
			if n, ok := bindings[v]; !ok || p.est < n {
				bindings[v] = p.est
			}
		}
	}
	return steps, nil
}

// predictJoin is the executor's choice of a bound variable to read p
// through (chooseBind), taken on estimates.
func predictJoin(p *pattern, bindings map[string]int, avgDegree int) (Access, string, int) {
	acc, via, cost := CrossProduct, "", 0
	consider := func(a Access, v string, perBinding int) {
		n, ok := bindings[v]
		if !ok || acc == BindEdge {
			return
		}
		if c := n * perBinding; acc == CrossProduct || c < cost {
			acc, via, cost = a, v, c
		}
	}
	consider(BindEdge, p.edgeVar, 1)
	consider(BindOut, p.srcVar, avgDegree)
	consider(BindIn, p.dstVar, avgDegree)
	return acc, via, cost
}

// prepare validates b, compiles its patterns against g and orders them.
func prepare(g *graph.Graph, b eql.BGP) ([]*pattern, error) {
	if len(b.Patterns) == 0 {
		return nil, fmt.Errorf("bgp: empty pattern set")
	}
	if err := checkRoles(b); err != nil {
		return nil, err
	}
	ps := make([]*pattern, len(b.Patterns))
	for i, ep := range b.Patterns {
		ps[i] = compile(g, i, ep)
	}
	return order(ps), nil
}
