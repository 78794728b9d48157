// Package engine executes Extended Query Language queries end to end,
// implementing the evaluation strategy of Section 3:
//
//	(A) evaluate each BGP into a binding table (internal/bgp);
//	(B) derive each CTP's seed sets from the binding tables (or from the
//	    graph, for variables the BGPs do not bind), evaluate the CTP with
//	    a connection-search algorithm (internal/core), filters pushed in;
//	(C) natural-join the BGP and CTP tables and project the head.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"ctpquery/internal/bgp"
	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	// Linked for its side effect: registers the parallel CTP search
	// runtime, which only tests reach (core.Sharded).
	_ "ctpquery/internal/exec"
	"ctpquery/internal/fault"
	"ctpquery/internal/graph"
	"ctpquery/internal/obs"
	"ctpquery/internal/score"
	"ctpquery/internal/storage"
	"ctpquery/internal/tree"
	"ctpquery/internal/wire"
)

// Options configures an Engine.
type Options struct {
	// Algorithm evaluates CTPs; the default is MoLESP, the paper's
	// recommended variant.
	Algorithm core.Algorithm

	// DefaultTimeout bounds each CTP evaluation when the query does not
	// specify TIMEOUT (0 = unbounded).
	DefaultTimeout time.Duration

	// Parallel evaluates the query's CTPs concurrently (one goroutine
	// each). CTP searches are independent by construction (Section 3
	// step B), so this is safe; it helps queries with several CTPs, like
	// the J1 shape of Table 1.
	Parallel bool

	// Parallelism bounds the workers each CTP search may be sharded
	// across (the internal/exec runtime): 0 keeps the caller's goroutine,
	// negative means GOMAXPROCS. No measured search repays the workers
	// yet, so core runs every search on the caller's goroutine whatever
	// the bound (core.Sharded, DESIGN.md §6). It composes with Parallel —
	// Parallel spreads independent CTPs, Parallelism bounds one search.
	// Each clause's schedule is decided once, by resolveSchedule.
	Parallelism int

	// OnCTPResult, when set, streams each CTP result as the search finds
	// it (before TOP-k trimming); ctp is the CTP's index in query order.
	// Returning false stops that CTP's search, reported through its
	// Stats.Truncated. With Parallel, the callback may be invoked from
	// several goroutines at once and must be safe for concurrent use.
	OnCTPResult func(ctp int, r core.Result) bool

	// TrackAllocs reports each CTP search's heap allocation count through
	// its Stats (an observability aid for servers; see
	// core.Options.TrackAllocs for the concurrency caveat).
	TrackAllocs bool
}

// Engine evaluates EQL queries over one graph.
type Engine struct {
	g    *graph.Graph
	opts Options
}

// New creates an engine. A zero Options selects MoLESP.
func New(g *graph.Graph, opts Options) *Engine {
	if opts.Algorithm == 0 {
		opts.Algorithm = core.MoLESP
	}
	return &Engine{g: g, opts: opts}
}

// NewDefault creates an engine with MoLESP and no timeout.
func NewDefault(g *graph.Graph) *Engine { return New(g, Options{Algorithm: core.MoLESP}) }

// Result is the outcome of executing a query: the head projection, the
// trees bound to tree variables (referenced from the table by handle), and
// per-phase timings matching the paper's reporting (Section 5.5.2 breaks
// down CTP time vs. BGP + join time).
type Result struct {
	Table *storage.Table
	Trees []*tree.Tree // tree handle -> tree; handles are row values

	BGPTime  time.Duration
	CTPTime  time.Duration
	JoinTime time.Duration
	CTPStats []*core.Stats // one per CTP, in query order

	// BGPExamined and BGPRows sum, over the query's BGPs, the edges step
	// (A) read and checked and the rows it materialized (bgp.Stats).
	BGPExamined int
	BGPRows     int
}

// Tree resolves a tree handle from the result table.
func (r *Result) Tree(handle int32) *tree.Tree {
	if handle < 0 || int(handle) >= len(r.Trees) {
		return nil
	}
	return r.Trees[handle]
}

// TimedOut reports whether any CTP search hit its time bound (the TIMEOUT
// filter, Options.DefaultTimeout, or a context deadline), making the
// result a — still valid — subset of the full answer.
func (r *Result) TimedOut() bool {
	for _, st := range r.CTPStats {
		if st != nil && st.TimedOut {
			return true
		}
	}
	return false
}

// Truncated reports whether any CTP search stopped early for a reason
// other than time: a LIMIT filter or a streaming callback returning false.
func (r *Result) Truncated() bool {
	for _, st := range r.CTPStats {
		if st != nil && st.Truncated {
			return true
		}
	}
	return false
}

// Report is the query's search report: step (A)'s BGP effort plus every
// CONNECT clause's report, folded with wire.Search.Add. Each call builds
// a fresh report, so callers may fold into it.
func (r *Result) Report() wire.Search {
	rep := r.bgpReport()
	for _, st := range r.CTPStats {
		if st != nil {
			rep.Add(clauseReport(st))
		}
	}
	return rep
}

// bgpReport is the report of step (A) alone.
func (r *Result) bgpReport() wire.Search {
	return wire.Search{BGPExamined: r.BGPExamined, BGPRows: r.BGPRows}
}

// clauseReport turns one CONNECT clause's kernel counters into the search
// report. It is the one conversion: Report folds its values, and the
// clause's ctp[i] and worker[j] spans carry them as attributes.
func clauseReport(st *core.Stats) wire.Search {
	rep := wire.Search{
		TreesGenerated: st.Created,
		TreesKept:      st.Kept(),
		TreesRecycled:  st.Recycled,
		PeakTrees:      st.PeakTrees,
		PeakQueueLen:   st.PeakQueueLen,
		Allocations:    st.Allocations,
		Parallelism:    st.Parallelism,
	}
	if len(st.Workers) > 0 {
		rep.Workers = make([]wire.Worker, len(st.Workers))
		for i, w := range st.Workers {
			rep.Workers[i] = wire.Worker{Ops: w.Ops, Kept: w.Kept, Shipped: w.Shipped, BusyMS: float64(w.BusyNS) / 1e6}
		}
	}
	return rep
}

// Execute runs q and returns its result. The query must be valid
// (eql.Parse validates; programmatic queries should call Validate first).
func (e *Engine) Execute(q *eql.Query) (*Result, error) {
	return e.ExecuteContext(context.Background(), q)
}

// ExecuteContext runs q under ctx. Cancellation is checked between the
// evaluation phases, inside BGP evaluation (bgp.EvaluateContext) and,
// through core.Options.Done, inside every CTP search: a cancelled context
// aborts with context.Canceled. A context deadline never produces an
// error; it clamps each CTP's time budget (the query's TIMEOUT filter and
// Options.DefaultTimeout both respect it), so an expiring — or already
// expired — deadline returns the partial results found so far, flagged
// via Result.TimedOut: the paper's TIMEOUT semantics (Section 2). A
// deadline does not bound BGP evaluation, whose complete tables those
// partial results are joined with; the final join runs to completion.
func (e *Engine) ExecuteContext(ctx context.Context, q *eql.Query) (res *Result, err error) {
	// Evaluation span (nil no-op without a tracer in ctx). Registered
	// before the recovery defer so the LIFO unwind recovers first — the
	// span then records the structured error a contained panic became.
	eval := obs.FromContext(ctx).Child("engine.eval")
	defer func() {
		if err != nil {
			eval.Error(err)
		}
		eval.End()
	}()
	// Containment backstop for the phases outside the CTP searches (BGP
	// evaluation, the join, projection): a panic there becomes a
	// structured error instead of killing the process.
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, fault.Recovered("engine: execute", rec)
		}
	}()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err == context.Canceled {
		return nil, err
	}
	res = &Result{}

	// Step (A): evaluate the BGPs.
	startBGP := time.Now()
	bgpTables := make([]*storage.Table, len(q.BGPs))
	for i, b := range q.BGPs {
		t, st, err := bgp.EvaluateContext(ctx, e.g, b)
		if errors.Is(err, context.Canceled) {
			return nil, err
		}
		if err != nil {
			return nil, fmt.Errorf("engine: BGP %d: %w", i, err)
		}
		bgpTables[i] = t
		res.BGPExamined += st.Examined
		res.BGPRows += st.Rows
	}
	res.BGPTime = time.Since(startBGP)
	if eval != nil {
		eval.ChildTimed("bgp", startBGP, res.BGPTime, append(res.bgpReport().Attrs(),
			obs.Attr{Key: "bgps", Val: strconv.Itoa(len(q.BGPs))})...)
	}
	if err := ctx.Err(); err == context.Canceled {
		return nil, err
	}

	// Step (B): evaluate the CTPs — sequentially or in parallel; the
	// searches are independent, and tree handles are rebased afterwards
	// so table rows reference the merged tree list.
	startCTP := time.Now()
	ctpOuts := make([]ctpOutput, len(q.CTPs))
	if e.opts.Parallel && len(q.CTPs) > 1 {
		var wg sync.WaitGroup
		for i := range q.CTPs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctpOuts[i] = e.safeEvalCTP(ctx, i, q.CTPs[i], bgpTables)
			}(i)
		}
		wg.Wait()
	} else {
		for i := range q.CTPs {
			ctpOuts[i] = e.safeEvalCTP(ctx, i, q.CTPs[i], bgpTables)
		}
	}
	// A cancelled (as opposed to expired) context aborts the query; an
	// expired deadline falls through with whatever the bounded searches
	// produced.
	if ctx.Err() == context.Canceled {
		return nil, ctx.Err()
	}
	ctpTables := make([]*storage.Table, len(q.CTPs))
	for i, out := range ctpOuts {
		if out.err != nil {
			return nil, fmt.Errorf("engine: CTP %d: %w", i, out.err)
		}
		// Synthesize the CTP's span tree retroactively from its report —
		// per-worker spans come from the exec runtime's spawn-to-drain
		// aggregates, so the hot search loop carries zero tracing cost.
		if st := out.stats; st != nil && eval != nil {
			rep := clauseReport(st)
			cs := eval.ChildTimed(fmt.Sprintf("ctp[%d]", i), startCTP, st.Duration, rep.Attrs()...)
			for wi, w := range rep.Workers {
				cs.ChildTimed(fmt.Sprintf("worker[%d]", wi), startCTP, time.Duration(st.Workers[wi].WallNS), w.Attrs()...)
			}
		}
		base := int32(len(res.Trees))
		res.Trees = append(res.Trees, out.trees...)
		if base != 0 && out.table.NumRows() > 0 {
			col := out.table.Column(q.CTPs[i].TreeVar)
			for r := 0; r < out.table.NumRows(); r++ {
				out.table.Row(r)[col] += base
			}
		}
		ctpTables[i] = out.table
		res.CTPStats = append(res.CTPStats, out.stats)
	}
	res.CTPTime = time.Since(startCTP)

	// Step (C): join everything and project the head.
	startJoin := time.Now()
	joined := joinAll(append(append([]*storage.Table{}, bgpTables...), ctpTables...))
	head, err := joined.Project(q.Head...)
	if err != nil {
		return nil, fmt.Errorf("engine: head projection: %w", err)
	}
	res.Table = head.Distinct()
	if q.Limit > 0 && res.Table.NumRows() > q.Limit {
		kept := 0
		res.Table = res.Table.Select(func([]int32) bool {
			kept++
			return kept <= q.Limit
		})
	}
	res.JoinTime = time.Since(startJoin)
	eval.ChildTimed("join", startJoin, res.JoinTime,
		obs.Attr{Key: "rows", Val: strconv.Itoa(res.Table.NumRows())})
	return res, nil
}

// schedule is how one CONNECT clause's search runs: on the caller's
// goroutine with one queue or the Section 4.9 multi-queue, under a bound
// of workers exec workers (0: none), which core uses only where
// core.Sharded says so. rule names the rule that decided it.
// resolveSchedule is its one source: evalCTP applies it and Explain
// prints it.
type schedule struct {
	workers    int
	multiQueue bool
	rule       string
}

// The rules of resolveSchedule, in the order they are tried.
const (
	byFamily    = "algorithm family"
	byUniversal = "universal seed set"
	byDegree    = "degree"
	bySkew      = "skew >= 32 at degree 0"
)

// skewThreshold is the largest-to-smallest seed set size ratio from which
// a search at degree 0 runs the multi-queue.
const skewThreshold = 32

// unknownSize stands for a seed set step (A) binds: Explain plans before
// the BGPs run.
const unknownSize = -1

// resolveSchedule decides one clause's schedule by the rule of DESIGN.md
// §6. parallelism is Options.Parallelism, an upper bound (negative means
// GOMAXPROCS); universal reports a universal seed set, and sizes holds
// the sizes of the others. Where the skew rule needs an unknownSize, the
// decision waits for the run: it returns the single queue under bySkew.
func resolveSchedule(alg core.Algorithm, parallelism int, universal bool, sizes []int) schedule {
	switch {
	case !slices.Contains(core.GAMFamily(), alg):
		return schedule{rule: byFamily}
	case universal:
		return schedule{multiQueue: true, rule: byUniversal}
	case parallelism < 0:
		return schedule{workers: runtime.GOMAXPROCS(0), rule: byDegree}
	case parallelism > 0 || len(sizes) == 0:
		return schedule{workers: parallelism, rule: byDegree}
	}
	lo, hi := sizes[0], sizes[0]
	for _, s := range sizes {
		if s == unknownSize {
			return schedule{rule: bySkew}
		}
		lo, hi = min(lo, s), max(hi, s)
	}
	if lo > 0 && hi/lo >= skewThreshold {
		return schedule{multiQueue: true, rule: bySkew}
	}
	return schedule{rule: byDegree}
}

// joinAll natural-joins the tables, preferring join partners sharing
// columns; disconnected groups degrade to cross products (Definition
// 2.10's ⋈ over all simple variables).
func joinAll(tables []*storage.Table) *storage.Table {
	if len(tables) == 0 {
		empty := storage.NewTable()
		empty.AddRow()
		return empty
	}
	acc := tables[0]
	rest := tables[1:]
	for len(rest) > 0 {
		picked := -1
		for i, t := range rest {
			for _, c := range t.Cols() {
				if acc.HasColumn(c) {
					picked = i
					break
				}
			}
			if picked >= 0 {
				break
			}
		}
		if picked == -1 {
			picked = 0
		}
		acc = storage.NaturalJoin(acc, rest[picked])
		rest = append(rest[:picked], rest[picked+1:]...)
	}
	return acc
}

// ctpOutput is the self-contained result of one CTP evaluation; tree
// handles in table are local (0-based) and rebased by Execute, keeping
// parallel evaluation free of shared state.
type ctpOutput struct {
	table *storage.Table
	trees []*tree.Tree
	stats *core.Stats
	err   error
}

// evalCTP derives seed sets per Section 3 step (B.1), runs the search with
// filters pushed down, and materializes the CTP table whose columns are
// the named member variables plus the tree variable. idx is the CTP's
// position in query order (for the streaming callback); ctx cancellation
// and deadline are pushed into the search.
// probeEvalCTP fires once per CTP evaluation (inert unless armed via
// internal/fault).
var probeEvalCTP = fault.Register("engine.eval_ctp")

// safeEvalCTP is evalCTP behind a panic containment boundary. It matters
// most on the Parallel path, where each CTP runs on its own goroutine: an
// uncontained panic there would kill the whole process no matter what the
// HTTP layer recovers.
func (e *Engine) safeEvalCTP(ctx context.Context, idx int, c eql.CTP, bgpTables []*storage.Table) (out ctpOutput) {
	defer func() {
		if rec := recover(); rec != nil {
			out = ctpOutput{err: fault.Recovered("engine: CTP evaluation", rec)}
		}
	}()
	return e.evalCTP(ctx, idx, c, bgpTables)
}

func (e *Engine) evalCTP(ctx context.Context, idx int, c eql.CTP, bgpTables []*storage.Table) ctpOutput {
	probeEvalCTP.Hit()
	seeds := make([]core.SeedSet, len(c.Members))
	sizes := make([]int, 0, len(c.Members)) // of the non-universal seed sets
	universal := false
	for i, m := range c.Members {
		set, err := e.seedSet(m, bgpTables)
		if err != nil {
			return ctpOutput{err: err}
		}
		seeds[i] = set
		if set.Universal {
			universal = true
		} else {
			sizes = append(sizes, len(set.Nodes))
		}
	}

	opts := core.Options{
		Algorithm:   e.opts.Algorithm,
		Filters:     c.Filters,
		Done:        ctx.Done(),
		TrackAllocs: e.opts.TrackAllocs,
	}
	if opts.Filters.Timeout == 0 {
		opts.Filters.Timeout = e.opts.DefaultTimeout
	}
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			remaining = time.Nanosecond
		}
		if opts.Filters.Timeout == 0 || opts.Filters.Timeout > remaining {
			opts.Filters.Timeout = remaining
		}
	}
	if e.opts.OnCTPResult != nil {
		opts.OnResult = func(r core.Result) bool { return e.opts.OnCTPResult(idx, r) }
	}
	if c.Filters.Score != "" {
		f, ok := score.Get(c.Filters.Score)
		if !ok {
			return ctpOutput{err: fmt.Errorf("unknown score function %q (have %v)",
				c.Filters.Score, score.Names())}
		}
		opts.Score = f
	}
	sch := resolveSchedule(e.opts.Algorithm, e.opts.Parallelism, universal, sizes)
	opts.Parallelism, opts.MultiQueue = sch.workers, sch.multiQueue

	rs, stats, err := core.Search(e.g, seeds, opts)
	if err != nil {
		return ctpOutput{err: err}
	}
	out := ctpOutput{stats: stats}

	// Materialize the CTP table with local tree handles.
	var cols []string
	memberCol := make([]int, len(c.Members)) // -1 for anonymous members
	for i, m := range c.Members {
		if m.Var == "" {
			memberCol[i] = -1
			continue
		}
		memberCol[i] = len(cols)
		cols = append(cols, m.Var)
	}
	treeCol := len(cols)
	cols = append(cols, c.TreeVar)
	out.table = storage.NewTable(cols...)

	for _, r := range rs.Results {
		handle := int32(len(out.trees))
		out.trees = append(out.trees, r.Tree)
		row := make([]int32, len(cols))
		row[treeCol] = handle
		// Universal members bound to a named variable expand over every
		// node of the tree (Definition 2.8's adjustment for N seed sets);
		// other members bind their unique seed.
		expand := []int{}
		for i := range c.Members {
			if memberCol[i] < 0 {
				continue
			}
			if seeds[i].Universal {
				expand = append(expand, i)
				continue
			}
			row[memberCol[i]] = int32(r.Seeds[i])
		}
		if len(expand) == 0 {
			out.table.AddRow(row...)
			continue
		}
		emitExpanded(out.table, row, expand, memberCol, r.Tree.Nodes)
	}
	return out
}

// emitExpanded emits one row per assignment of the universal member
// variables to tree nodes.
func emitExpanded(out *storage.Table, row []int32, expand, memberCol []int, nodes []graph.NodeID) {
	if len(expand) == 0 {
		out.AddRow(row...)
		return
	}
	i, rest := expand[0], expand[1:]
	for _, n := range nodes {
		row[memberCol[i]] = int32(n)
		emitExpanded(out, row, rest, memberCol, nodes)
	}
}

// seedSet derives the seed set of one CTP member per Section 3 step (B.1):
// a variable bound by some BGP projects that binding (further restricted
// by the member predicate); otherwise the predicate selects over all graph
// nodes; an unbound empty predicate denotes N, the universal set.
func (e *Engine) seedSet(m eql.Predicate, bgpTables []*storage.Table) (core.SeedSet, error) {
	if m.Var != "" {
		for _, t := range bgpTables {
			if !t.HasColumn(m.Var) {
				continue
			}
			vals, err := t.ColumnValues(m.Var)
			if err != nil {
				return core.SeedSet{}, err
			}
			nodes := make([]graph.NodeID, 0, len(vals))
			for _, v := range vals {
				n := graph.NodeID(v)
				if m.IsEmpty() || m.MatchNode(e.g, n) {
					nodes = append(nodes, n)
				}
			}
			return core.SeedSet{Nodes: nodes}, nil
		}
	}
	if m.IsEmpty() {
		return core.SeedSet{Universal: true}, nil
	}
	return core.SeedSet{Nodes: m.SelectNodes(e.g)}, nil
}
