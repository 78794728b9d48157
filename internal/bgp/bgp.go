// Package bgp evaluates Basic Graph Patterns (Definition 2.4) over a
// graph: it computes every embedding (Definition 2.7) of a BGP's variables
// into nodes and edges, returning a binding table. This is step (A) of the
// EQL evaluation strategy (Section 3), the part the paper delegates to a
// conjunctive query engine (PostgreSQL in their setup).
//
// Evaluation is planned, then pipelined. The planner (plan.go) compiles
// each pattern's label and type constants to LabelIDs and orders the
// patterns greedily by estimated cardinality, keeping each next pattern
// connected to the variables already bound. The executor (exec.go) reads
// the leading pattern through its cheapest index (edge-label index,
// node-label or type index plus adjacency, or a full edge scan) and every
// later pattern as a bind join — through the adjacency of the nodes, or
// the identity of the edges, the rows so far bind — unless those bindings
// would make it read more edges than the pattern's own index holds, in
// which case the pattern is scanned and hash-joined. Anonymous positions
// are projected away as rows are built.
package bgp

import (
	"context"
	"fmt"

	"ctpquery/internal/eql"
	"ctpquery/internal/graph"
	"ctpquery/internal/storage"
)

// Evaluate computes the binding table of b over g. Columns are the BGP's
// named variables; rows are deduplicated (set semantics, Definition 2.10)
// and in no particular order. A BGP with only constant patterns produces a
// zero-column table with one row when the pattern is satisfiable and zero
// rows otherwise.
func Evaluate(g *graph.Graph, b eql.BGP) (*storage.Table, error) {
	t, _, err := EvaluateContext(context.Background(), g, b)
	return t, err
}

// EvaluateContext is Evaluate under ctx, reporting the work done. A
// cancelled context aborts the evaluation with context.Canceled within a
// few thousand edges or rows; an expired deadline does not (see
// engine.ExecuteContext for the contract this serves). The Stats are
// meaningful on error too: they count the work done until then.
func EvaluateContext(ctx context.Context, g *graph.Graph, b eql.BGP) (*storage.Table, Stats, error) {
	ps, err := prepare(g, b)
	if err != nil {
		return nil, Stats{}, err
	}
	x := &executor{ctx: ctx, g: g}
	acc, err := x.scan(ps[0])
	for i := 1; err == nil && i < len(ps); i++ {
		acc, err = x.join(acc, ps[i])
	}
	if err != nil {
		return nil, x.st, err
	}
	return acc, x.st, nil
}

// checkRoles verifies that each variable is used consistently as a node
// variable or an edge variable; an embedding maps a variable to one
// element, so mixing roles can never match.
func checkRoles(b eql.BGP) error {
	role := map[string]string{}
	note := func(v, r string) error {
		if v == "" {
			return nil
		}
		if prev, ok := role[v]; ok && prev != r {
			return fmt.Errorf("bgp: variable ?%s used as both %s and %s", v, prev, r)
		}
		role[v] = r
		return nil
	}
	for _, ep := range b.Patterns {
		if err := note(ep.Src.Var, "node"); err != nil {
			return err
		}
		if err := note(ep.Edge.Var, "edge"); err != nil {
			return err
		}
		if err := note(ep.Dst.Var, "node"); err != nil {
			return err
		}
	}
	return nil
}
