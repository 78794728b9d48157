package eql

import (
	"strconv"

	"ctpquery/internal/graph"
)

// MatchNode reports whether node n satisfies every condition of p
// (Definition 2.2: replacing the variable by n makes every condition true).
func (p Predicate) MatchNode(g *graph.Graph, n graph.NodeID) bool {
	for _, c := range p.Conds {
		if !matchNodeCond(g, n, c) {
			return false
		}
	}
	return true
}

// MatchEdge reports whether edge e satisfies every condition of p. The
// "type" pseudo-property never holds on edges in this model.
func (p Predicate) MatchEdge(g *graph.Graph, e graph.EdgeID) bool {
	for _, c := range p.Conds {
		if !matchEdgeCond(g, e, c) {
			return false
		}
	}
	return true
}

func matchNodeCond(g *graph.Graph, n graph.NodeID, c Condition) bool {
	switch c.Prop {
	case "label":
		return compare(g.NodeLabel(n), c.Op, c.Value)
	case "type":
		if c.Op != OpEq {
			// Pattern-match over all the node's types.
			for _, t := range g.NodeTypes(n) {
				if compare(g.Labels().String(t), c.Op, c.Value) {
					return true
				}
			}
			return false
		}
		t, ok := g.LabelIDOf(c.Value)
		return ok && g.HasType(n, t)
	default:
		v, ok := g.NodeProp(c.Prop, n)
		return ok && compare(v, c.Op, c.Value)
	}
}

func matchEdgeCond(g *graph.Graph, e graph.EdgeID, c Condition) bool {
	switch c.Prop {
	case "label":
		return compare(g.EdgeLabel(e), c.Op, c.Value)
	case "type":
		return false
	default:
		v, ok := g.EdgeProp(c.Prop, e)
		return ok && compare(v, c.Op, c.Value)
	}
}

// compare evaluates "have op want". Ordering comparisons are numeric when
// both sides parse as numbers, lexicographic otherwise, mirroring how a
// relational engine with a typed column would behave on our string-typed
// properties.
func compare(have string, op Op, want string) bool {
	switch op {
	case OpEq:
		return have == want
	case OpLt, OpLe:
		if hf, err1 := strconv.ParseFloat(have, 64); err1 == nil {
			if wf, err2 := strconv.ParseFloat(want, 64); err2 == nil {
				if op == OpLt {
					return hf < wf
				}
				return hf <= wf
			}
		}
		if op == OpLt {
			return have < want
		}
		return have <= want
	case OpLike:
		return Glob(want, have)
	}
	return false
}

// Glob matches s against a pattern where '*' matches any (possibly empty)
// substring and '?' matches exactly one byte — the SQL LIKE flavor the
// paper's ~ operator stands for, with familiar shell spelling.
func Glob(pattern, s string) bool {
	// Iterative two-pointer matcher with backtracking to the last '*'.
	pi, si := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '*':
			star = pi
			mark = si
			pi++
		case star != -1:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// SelectNodes returns all graph nodes satisfying p, using label and type
// indexes when the predicate pins them with equality; otherwise it scans.
// This implements the seed-set derivation "restrict N to the nodes that
// match g_i" of Section 3 step (B.1).
func (p Predicate) SelectNodes(g *graph.Graph) []graph.NodeID {
	// Fast paths: equality on label or type narrows via index.
	for _, c := range p.Conds {
		if c.Op != OpEq {
			continue
		}
		switch c.Prop {
		case "label":
			l, ok := g.LabelIDOf(c.Value)
			if !ok {
				return nil
			}
			return filterNodes(g, g.NodesWithLabel(l), p)
		case "type":
			t, ok := g.LabelIDOf(c.Value)
			if !ok {
				return nil
			}
			return filterNodes(g, g.NodesWithType(t), p)
		}
	}
	var out []graph.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if p.MatchNode(g, graph.NodeID(i)) {
			out = append(out, graph.NodeID(i))
		}
	}
	return out
}

func filterNodes(g *graph.Graph, candidates []graph.NodeID, p Predicate) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(candidates))
	for _, n := range candidates {
		if p.MatchNode(g, n) {
			out = append(out, n)
		}
	}
	return out
}

// SelectEdges returns all edges satisfying p, via the edge-label index
// when possible.
func (p Predicate) SelectEdges(g *graph.Graph) []graph.EdgeID {
	for _, c := range p.Conds {
		if c.Op == OpEq && c.Prop == "label" {
			l, ok := g.LabelIDOf(c.Value)
			if !ok {
				return nil
			}
			out := make([]graph.EdgeID, 0, len(g.EdgesWithLabel(l)))
			for _, e := range g.EdgesWithLabel(l) {
				if p.MatchEdge(g, e) {
					out = append(out, e)
				}
			}
			return out
		}
	}
	var out []graph.EdgeID
	for i := 0; i < g.NumEdges(); i++ {
		// Full ID-space scan: on a live epoch view, skip deleted slots.
		if !g.EdgeAlive(graph.EdgeID(i)) {
			continue
		}
		if p.MatchEdge(g, graph.EdgeID(i)) {
			out = append(out, graph.EdgeID(i))
		}
	}
	return out
}

// uniqueLabelValue returns the label a predicate pins by equality, if any.
func (p Predicate) uniqueLabelValue() (string, bool) {
	for _, c := range p.Conds {
		if c.Prop == "label" && c.Op == OpEq {
			return c.Value, true
		}
	}
	return "", false
}

// Selectivity estimates how many graph elements match p; lower is more
// selective. Used by the BGP evaluator to order scans.
func (p Predicate) Selectivity(g *graph.Graph, node bool) int {
	if p.IsEmpty() {
		if node {
			return g.NumNodes()
		}
		return g.NumEdges()
	}
	best := g.NumNodes() + g.NumEdges()
	for _, c := range p.Conds {
		if c.Op != OpEq {
			continue
		}
		switch c.Prop {
		case "label":
			if l, ok := g.LabelIDOf(c.Value); ok {
				if node {
					if n := len(g.NodesWithLabel(l)); n < best {
						best = n
					}
				} else if n := len(g.EdgesWithLabel(l)); n < best {
					best = n
				}
			} else {
				return 0
			}
		case "type":
			if node {
				if t, ok := g.LabelIDOf(c.Value); ok {
					if n := len(g.NodesWithType(t)); n < best {
						best = n
					}
				} else {
					return 0
				}
			}
		}
	}
	return best
}

// Compiled is a predicate resolved against one graph: its `label =` and
// `type =` constants are interned to LabelIDs once, so matching an
// element against them is an integer compare instead of a string compare
// per element. Every other condition is kept and evaluated as MatchNode /
// MatchEdge would. The zero Compiled matches everything.
type Compiled struct {
	// Card is the predicate's Selectivity on the graph it was compiled
	// for: an estimate of how many elements match, lower is more selective.
	Card int

	unsat    bool // no element of this graph can match
	hasLabel bool
	label    graph.LabelID
	types    []graph.LabelID
	rest     Predicate // conditions other than label = / type =
}

// Compile resolves p against g, as a node predicate or an edge predicate.
// An equality on a string the graph never interned — or two different
// label constants, or any type condition on an edge — makes the result
// unsatisfiable.
func (p Predicate) Compile(g *graph.Graph, node bool) Compiled {
	c := Compiled{Card: p.Selectivity(g, node)}
	for _, cond := range p.Conds {
		switch {
		case cond.Prop == "type" && !node:
			c.unsat = true
		case cond.Op == OpEq && (cond.Prop == "label" || cond.Prop == "type"):
			id, ok := g.LabelIDOf(cond.Value)
			switch {
			case !ok:
				c.unsat = true
			case cond.Prop == "type":
				c.types = append(c.types, id)
			case c.hasLabel && c.label != id:
				c.unsat = true
			default:
				c.hasLabel, c.label = true, id
			}
		default:
			c.rest.Conds = append(c.rest.Conds, cond)
		}
	}
	if c.unsat {
		c.Card = 0
	}
	return c
}

// Unsat reports whether no element of the graph can match.
func (c Compiled) Unsat() bool { return c.unsat }

// MatchNode reports whether node n satisfies the predicate.
func (c Compiled) MatchNode(g *graph.Graph, n graph.NodeID) bool {
	if c.unsat || c.hasLabel && g.NodeLabelID(n) != c.label {
		return false
	}
	for _, t := range c.types {
		if !g.HasType(n, t) {
			return false
		}
	}
	return c.rest.MatchNode(g, n)
}

// MatchEdge reports whether edge e, whose label is l, satisfies the
// predicate.
func (c Compiled) MatchEdge(g *graph.Graph, e graph.EdgeID, l graph.LabelID) bool {
	if c.unsat || c.hasLabel && l != c.label {
		return false
	}
	return c.rest.MatchEdge(g, e)
}

// IndexNodes returns the smallest label- or type-index list that contains
// every matching node, nil when no equality condition pins one (a caller
// that takes Card below the node count as its cue never sees that case).
// Listed nodes still have to pass MatchNode.
func (c Compiled) IndexNodes(g *graph.Graph) []graph.NodeID {
	if c.unsat {
		return nil
	}
	var nodes []graph.NodeID
	if c.hasLabel {
		nodes = g.NodesWithLabel(c.label)
	}
	for i, t := range c.types {
		if l := g.NodesWithType(t); !c.hasLabel && i == 0 || len(l) < len(nodes) {
			nodes = l
		}
	}
	return nodes
}

// IndexEdges is IndexNodes for an edge predicate: the edge-label index
// list of its label constant.
func (c Compiled) IndexEdges(g *graph.Graph) []graph.EdgeID {
	if c.unsat || !c.hasLabel {
		return nil
	}
	return g.EdgesWithLabel(c.label)
}
