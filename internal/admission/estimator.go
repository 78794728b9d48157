// Package admission is the server's self-defense layer: a per-request
// cost estimator and a bounded two-class admission queue with
// load-shedding. It turns "fast kernel" into "fast service" — cheap and
// cached requests must never sit behind 10-second analytical searches,
// and saturation must answer 429 quickly instead of queueing without
// bound (DESIGN.md §8).
package admission

import (
	"math"
	"sync"
	"time"

	"ctpquery"
)

// Class is a request's scheduling class.
type Class int

const (
	// Cheap requests are expected to finish in tens of milliseconds:
	// tightly bounded searches and BGP-only queries. They may use every
	// execution slot, including a reserve analytical requests cannot
	// touch, and are woken first when a slot frees.
	Cheap Class = iota
	// Analytical requests are heavy-tail enumerations. They are capped
	// below the total slot count so a flood of them can never occupy the
	// whole server.
	Analytical
)

// String returns the class name used in responses and /stats.
func (c Class) String() string {
	if c == Cheap {
		return "cheap"
	}
	return "analytical"
}

// UnitsPerMS converts between cost units (provenance-tree
// constructions, CostUnits) and milliseconds of search: the
// sequential kernel builds trees at single-digit-microsecond cost, so a
// millisecond is on the order of a thousand units. The constant only
// needs to be right within an order of magnitude — the static model
// classifies, and the online feedback loop corrects per shape.
const UnitsPerMS = 2000

// scanEdgesPerUnit is the BGP scan rate: a pattern scan costs one unit
// per this many edges it reads. The static model charges scans at it and
// CostUnits credits observed BGP effort at it.
const scanEdgesPerUnit = 64

// CostUnits collapses a query's search report into one effort number,
// the feedback signal Observe learns per-shape costs from: provenance-tree
// constructions, the paper's effort metric, plus the BGP edges examined
// at scanEdgesPerUnit. A query that did neither still reports 1 so
// downstream ratios stay finite.
func CostUnits(s ctpquery.SearchStats) float64 {
	return max(1, float64(s.TreesGenerated)+float64(s.BGPExamined)/scanEdgesPerUnit)
}

// EstimatorConfig tunes the estimator; zero values select defaults.
type EstimatorConfig struct {
	// CheapThreshold is the estimated-units boundary between the classes
	// (default DefaultCheapThreshold ≈ 50ms of search).
	CheapThreshold float64
	// Alpha is the EWMA weight of a new observation (default 0.3).
	Alpha float64
}

// DefaultCheapThreshold classifies everything estimated above ~50ms of
// search effort as analytical.
const DefaultCheapThreshold = 50 * UnitsPerMS

// Estimator predicts the cost class of a query before it runs. The
// static model is seeded from graph statistics and the query shape; an
// exponentially weighted average of observed per-shape effort corrects
// it online, so systematically mis-priced shapes converge to their
// measured cost.
//
// The static model is deliberately monotone over the relaxation
// lattice: adding a member or a predicate condition to a CONNECT clause
// never lowers the estimate (seed-set selectivity is NOT modeled). An
// over-constrained query must be priced at least as high as any of its
// relaxations, because the future relaxation work will run relaxations
// under the admission decision made for the original query; the
// property test in estimator_test.go pins this.
type Estimator struct {
	nodes, edges   int
	branch         float64 // average undirected degree, the frontier growth base
	cheapThreshold float64
	alpha          float64

	mu       sync.Mutex
	observed map[uint64]*ewma

	estimates    int64
	observations int64
}

// ewma is one shape's learned cost.
type ewma struct {
	mean float64
	n    int64
}

// NewEstimator builds an estimator for a graph with the given node and
// edge counts.
func NewEstimator(nodes, edges int, cfg EstimatorConfig) *Estimator {
	if cfg.CheapThreshold <= 0 {
		cfg.CheapThreshold = DefaultCheapThreshold
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.3
	}
	if nodes < 1 {
		nodes = 1
	}
	branch := float64(2*edges) / float64(nodes)
	if branch < 2 {
		branch = 2
	}
	return &Estimator{
		nodes:          nodes,
		edges:          edges,
		branch:         branch,
		cheapThreshold: cfg.CheapThreshold,
		alpha:          cfg.Alpha,
		observed:       make(map[uint64]*ewma),
	}
}

// Estimate is one request's predicted cost.
type Estimate struct {
	// Units is the predicted effort in cost units (UnitsPerMS per
	// millisecond of search).
	Units float64
	// Class is the scheduling class Units implies.
	Class Class
	// Sig identifies the query's shape; pass it to Observe with the
	// measured effort after the request executes.
	Sig uint64
	// Learned reports whether Units came from observed feedback rather
	// than the static model.
	Learned bool
}

// depthCap bounds the modeled search depth when MAX is absent; beyond
// ~12 edges the frontier term saturates against the edge count anyway.
const depthCap = 12

// Estimate prices a query shape. budget, when positive, is the
// request's effective deadline — effort is capped at what the deadline
// lets the engine spend, so a tightly bounded request on a huge shape
// still classifies by what it can actually cost the server.
func (e *Estimator) Estimate(shape ctpquery.QueryShape, budget time.Duration) Estimate {
	sig := shapeSig(shape)

	e.mu.Lock()
	e.estimates++
	w, learned := e.observed[sig]
	var units float64
	if learned {
		units = w.mean
	}
	e.mu.Unlock()

	if !learned {
		units = e.staticUnits(shape)
	}
	if budget > 0 {
		if cap := float64(budget.Milliseconds()+1) * UnitsPerMS; units > cap {
			units = cap
		}
	}
	class := Cheap
	if units >= e.cheapThreshold {
		class = Analytical
	}
	return Estimate{Units: units, Class: class, Sig: sig, Learned: learned}
}

// staticUnits is the shape-only cost model. Per CONNECT clause:
//
//		units = seeds × frontier × combinations × (1 + 0.05·conditions)
//
//	  - frontier is the depth-bounded candidate growth m·min(branch^depth,
//	    4E): every member's seed set expands wave by wave up to the MAX
//	    bound (or depthCap when unbounded), saturating against the edge
//	    count — a frontier cannot outgrow the graph.
//	  - combinations is 2^(m−1): merged provenances multiply across
//	    members, the explosion Figure 11 plots against m.
//	  - seeds multiplies by the node count per universal member (a member
//	    with no conditions and no BGP binding seeds at every node).
//	    Constrained members are charged 1 regardless of selectivity —
//	    deliberately, for lattice monotonicity (see the type comment).
//	  - conditions add predicate-evaluation cost per candidate and never
//	    reduce the estimate, again for monotonicity: an over-constrained
//	    query explores its whole bounded frontier before concluding
//	    "no results", it does not get cheaper by matching less.
//
// A per-CTP LIMIT caps the clause at roughly the effort of surfacing
// Limit results from one frontier; a per-CTP TIMEOUT caps it at what
// the time bound allows. BGP patterns add a scan term linear in the
// edge count.
func (e *Estimator) staticUnits(shape ctpquery.QueryShape) float64 {
	total := 16.0
	total += float64(shape.BGPPatterns) * (float64(e.edges)/scanEdgesPerUnit + 16)
	for _, c := range shape.CTPs {
		depth := c.MaxEdges
		if depth <= 0 || depth > depthCap {
			depth = depthCap
		}
		frontier := math.Pow(e.branch, float64(depth))
		if lim := 4 * float64(e.edges); frontier > lim {
			frontier = lim
		}
		frontier *= float64(c.Members)
		condPenalty := 1 + 0.05*float64(c.Conditions)
		seeds := math.Pow(float64(e.nodes), float64(c.Universal))
		combos := math.Pow(2, float64(c.Members-1))

		units := seeds * frontier * combos * condPenalty
		if c.Limit > 0 {
			if cap := seeds * frontier * condPenalty * float64(1+c.Limit); units > cap {
				units = cap
			}
		}
		if c.Timeout > 0 {
			if cap := float64(c.Timeout.Milliseconds()+1) * UnitsPerMS; units > cap {
				units = cap
			}
		}
		total += units
	}
	return total
}

// Observe feeds one executed request's measured effort back into the
// estimator under the shape signature its Estimate reported. Callers
// must only report real executions — cache hits and coalesced waiters
// re-report another run's stats and would double-count.
func (e *Estimator) Observe(sig uint64, actualUnits float64) {
	if actualUnits < 1 {
		actualUnits = 1
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observations++
	w := e.observed[sig]
	if w == nil {
		e.observed[sig] = &ewma{mean: actualUnits, n: 1}
		return
	}
	w.mean += e.alpha * (actualUnits - w.mean)
	w.n++
}

// EstimatorStats is a snapshot of the estimator counters for /stats.
type EstimatorStats struct {
	Estimates     int64 // Estimate calls
	Observations  int64 // Observe calls
	LearnedShapes int   // distinct shapes with observed feedback
}

// Stats returns a snapshot of the counters.
func (e *Estimator) Stats() EstimatorStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EstimatorStats{
		Estimates:     e.estimates,
		Observations:  e.observations,
		LearnedShapes: len(e.observed),
	}
}

// shapeSig hashes the shape fields that drive the static model (FNV-1a).
// Label/property values are deliberately absent: learning pools every
// query with the same structure, which is what makes a few observations
// cover a whole workload of distinct node pairs.
func shapeSig(s ctpquery.QueryShape) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(s.BGPPatterns))
	mix(uint64(s.Limit))
	for _, c := range s.CTPs {
		mix(uint64(c.Members))
		mix(uint64(c.Universal))
		mix(uint64(c.Conditions))
		mix(uint64(c.MaxEdges))
		mix(uint64(c.Labels))
		if c.Uni {
			mix(1)
		} else {
			mix(2)
		}
		mix(uint64(c.Limit))
		mix(uint64(c.TopK))
		mix(uint64(c.Timeout))
	}
	return h
}
