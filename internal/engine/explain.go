package engine

import (
	"fmt"
	"strconv"
	"strings"

	"ctpquery/internal/bgp"
	"ctpquery/internal/core"
	"ctpquery/internal/eql"
)

// Explain describes, without executing the query, the plan Execute would
// follow: per BGP the order its patterns are evaluated in and each one's
// access path with the estimates behind it (bgp.Plan), and per CTP the
// derived seed-set strategy (BGP-bound, predicate-selected, or
// universal), the algorithm, and the schedule resolveSchedule picks. It
// is the paper's "adaptive EQL optimization" hook (Section 6's future
// work) in diagnostic form.
func (e *Engine) Explain(q *eql.Query) (string, error) {
	if err := q.Validate(); err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan for %d BGP(s), %d CTP(s); algorithm %v\n",
		len(q.BGPs), len(q.CTPs), e.opts.Algorithm)

	boundVars := map[string]bool{}
	for i, b := range q.BGPs {
		steps, err := bgp.Plan(e.g, b)
		if err != nil {
			return "", fmt.Errorf("engine: BGP %d: %w", i, err)
		}
		fmt.Fprintf(&sb, "  BGP %d: %d edge pattern(s), in evaluation order\n", i, len(b.Patterns))
		for n, st := range steps {
			ep := b.Patterns[st.Pattern]
			fmt.Fprintf(&sb, "    %d. (%s, %s, %s): %s\n", n+1,
				describeTerm(ep.Src), describeTerm(ep.Edge), describeTerm(ep.Dst), describeStep(st))
		}
		if len(steps) > 1 {
			sb.WriteString("    (bind or hash join is decided again at run time, from the sizes observed)\n")
		}
		for _, v := range b.Vars() {
			boundVars[v] = true
		}
	}
	for i, c := range q.CTPs {
		fmt.Fprintf(&sb, "  CTP %d (tree ?%s): m=%d\n", i, c.TreeVar, c.M())
		sizes := make([]int, 0, c.M())
		universal := false
		for _, m := range c.Members {
			switch {
			case m.Var != "" && boundVars[m.Var]:
				fmt.Fprintf(&sb, "    seed ?%s: bound by BGP\n", m.Var)
				sizes = append(sizes, unknownSize)
			case m.IsEmpty():
				fmt.Fprintf(&sb, "    seed %s: universal (N) — no Init trees (Sec 4.9)\n", describeTerm(m))
				universal = true
			default:
				n := len(m.SelectNodes(e.g))
				fmt.Fprintf(&sb, "    seed %s: predicate selects %d node(s)\n", describeTerm(m), n)
				sizes = append(sizes, n)
			}
		}
		fmt.Fprintf(&sb, "    filters: %s\n", describeFilters(c.Filters))
		fmt.Fprintf(&sb, "    %s\n", describeSchedule(resolveSchedule(e.opts.Algorithm, e.opts.Parallelism, universal, sizes)))
	}
	fmt.Fprintf(&sb, "  join: natural join of all tables, project %v", q.Head)
	if q.Limit > 0 {
		fmt.Fprintf(&sb, ", LIMIT %d", q.Limit)
	}
	sb.WriteString("\n")
	return sb.String(), nil
}

// describeSchedule renders a clause's schedule and the rule that decided
// it, with a worker bound as core.Sharded uses it. A skew decision that
// waits on a BGP-bound seed set's size is printed as such: step (A) has
// not run yet.
func describeSchedule(sch schedule) string {
	mq := strconv.FormatBool(sch.multiQueue)
	if sch.rule == bySkew && !sch.multiQueue {
		mq = "decided at run time, from the bound seed-set sizes"
	}
	par := "sequential kernel"
	switch {
	case sch.workers > 0 && !core.Sharded(core.Options{Parallelism: sch.workers}):
		par = fmt.Sprintf("sequential kernel (worker bound %d, not used: DESIGN.md §6)", sch.workers)
	case sch.workers > 1:
		par = fmt.Sprintf("%d workers (sharded exec runtime)", sch.workers)
	case sch.workers == 1:
		par = "1 worker (exec runtime)"
	}
	return fmt.Sprintf("multi-queue: %s; parallelism: %s (rule: %s)", mq, par, sch.rule)
}

// describeStep renders one plan step: its access path and the estimates
// the choice rests on.
func describeStep(st bgp.Step) string {
	switch st.Access {
	case bgp.BindOut, bgp.BindIn, bgp.BindEdge:
		return fmt.Sprintf("bind ?%s → %s: est. %d edges examined, against <= %d by %s",
			st.Var, st.Access, st.BindCost, st.Est, st.Scan)
	case bgp.HashJoin:
		return fmt.Sprintf("%s over %s: est. <= %d edges, against %d examined by binding ?%s",
			st.Access, st.Scan, st.Est, st.BindCost, st.Var)
	case bgp.CrossProduct:
		return fmt.Sprintf("%s over %s: est. <= %d edges", st.Access, st.Scan, st.Est)
	}
	return fmt.Sprintf("%s: est. <= %d edges", st.Access, st.Est)
}

func describeTerm(p eql.Predicate) string {
	if p.Var != "" {
		if len(p.Conds) > 0 {
			return fmt.Sprintf("?%s[%d conds]", p.Var, len(p.Conds))
		}
		return "?" + p.Var
	}
	if len(p.Conds) == 1 && p.Conds[0].Prop == "label" {
		return fmt.Sprintf("%q", p.Conds[0].Value)
	}
	if p.IsEmpty() {
		return "_"
	}
	return fmt.Sprintf("[%d conds]", len(p.Conds))
}

func describeFilters(f eql.Filters) string {
	if f.IsZero() {
		return "none"
	}
	var parts []string
	if f.Uni {
		parts = append(parts, "UNI")
	}
	if len(f.Labels) > 0 {
		parts = append(parts, fmt.Sprintf("LABEL(%d)", len(f.Labels)))
	}
	if f.MaxEdges > 0 {
		parts = append(parts, fmt.Sprintf("MAX %d", f.MaxEdges))
	}
	if f.Score != "" {
		parts = append(parts, "SCORE "+f.Score)
	}
	if f.TopK > 0 {
		parts = append(parts, fmt.Sprintf("TOP %d", f.TopK))
	}
	if f.Limit > 0 {
		parts = append(parts, fmt.Sprintf("LIMIT %d", f.Limit))
	}
	if f.Timeout > 0 {
		parts = append(parts, fmt.Sprintf("TIMEOUT %s", f.Timeout))
	}
	return strings.Join(parts, " ")
}
