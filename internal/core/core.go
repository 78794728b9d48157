// Package core implements the paper's primary contribution: the evaluation
// of set-based Connecting Tree Pattern (CTP) results (Section 4). Given a
// graph and m seed sets, a CTP search enumerates the minimal subtrees of
// the graph containing exactly one node from each seed set, traversing
// edges in both directions by default.
//
// Eight algorithms are provided, exactly as studied in the paper:
//
//	BFT     — breadth-first tree search (Section 4.1)
//	BFTM    — BFT + one-shot Merge (Section 4.3)
//	BFTAM   — BFT + aggressive Merge (Section 4.3)
//	GAM     — Grow and Aggressive Merge (Section 4.2)
//	ESP     — GAM + Edge Set Pruning (Section 4.4)
//	MoESP   — Merge-oriented ESP (Section 4.5)
//	LESP    — Limited Edge Set Pruning (Section 4.6)
//	MoLESP  — Mo + LESP combined (Section 4.7, Algorithms 1–5); complete
//	          for m <= 3 and for every result whose simple tree
//	          decomposition consists of rooted merges (Property 9)
//
// The CTP filters of Section 2 (UNI, LABEL, MAX, LIMIT, TIMEOUT, and
// SCORE/TOP via a score callback) are pushed into the search (Section 4.8),
// and the very-large-seed-set strategies of Section 4.9 (universal seed
// sets, multi-queue scheduling) are supported.
package core

import (
	"fmt"
	"math/bits"
	"runtime/metrics"
	"time"

	"ctpquery/internal/fault"

	"ctpquery/internal/bitset"
	"ctpquery/internal/eql"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// Algorithm selects a CTP evaluation strategy. The zero value is "unset"
// and resolves to MoLESP, the paper's recommended variant.
type Algorithm int

// The CTP evaluation algorithms of Section 4.
const (
	BFT Algorithm = iota + 1
	BFTM
	BFTAM
	GAM
	ESP
	MoESP
	LESP
	MoLESP
)

var algorithmNames = [...]string{"BFT", "BFT-M", "BFT-AM", "GAM", "ESP", "MoESP", "LESP", "MoLESP"}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	if a < BFT || int(a-1) >= len(algorithmNames) {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algorithmNames[a-1]
}

// Algorithms lists every algorithm, in the paper's presentation order.
func Algorithms() []Algorithm {
	return []Algorithm{BFT, BFTM, BFTAM, GAM, ESP, MoESP, LESP, MoLESP}
}

// GAMFamily lists the Grow-and-Merge variants compared in Figure 11.
func GAMFamily() []Algorithm { return []Algorithm{GAM, ESP, MoESP, LESP, MoLESP} }

// SeedSet is one S_i of a CTP. Universal marks the set as N, the set of
// all graph nodes (Section 4.9): universal sets spawn no Init trees and
// every node counts as a match for them.
type SeedSet struct {
	Nodes     []graph.NodeID
	Universal bool
}

// Explicit wraps node lists as non-universal seed sets.
func Explicit(sets ...[]graph.NodeID) []SeedSet {
	out := make([]SeedSet, len(sets))
	for i, s := range sets {
		out[i] = SeedSet{Nodes: s}
	}
	return out
}

// ScoreFunc assigns a score to a result tree; higher is better (Section 2).
type ScoreFunc func(g *graph.Graph, t *tree.Tree) float64

// PriorityFunc orders the search: Grow opportunities with lower values are
// popped first. The default prioritizes smallest trees, breaking ties in
// insertion (FIFO) order, as in the paper's experiments. Completeness of
// MoLESP holds for any order (Section 4.8).
type PriorityFunc func(t *tree.Tree, e graph.EdgeID) float64

// Options configures a Search.
type Options struct {
	Algorithm Algorithm

	// Filters are pushed into the search (Section 4.8). Filters.Score is
	// resolved by the caller into Score below; the name itself is ignored
	// here.
	Filters eql.Filters

	// Score annotates results; combined with Filters.TopK it keeps only
	// the k best.
	Score ScoreFunc

	// Priority overrides the exploration order.
	Priority PriorityFunc

	// OnResult, when set, streams each deduplicated result as it is
	// found (before LIMIT/TOP-k trimming); returning false stops the
	// search, reported as Stats.Truncated. Useful for interactive
	// exploration, where a journalist inspects connections as they
	// surface instead of waiting for the full enumeration.
	OnResult func(Result) bool

	// MultiQueue enables the skewed-seed-set strategy of Section 4.9: one
	// priority queue per tree signature, always growing from the queue
	// with the fewest entries.
	MultiQueue bool

	// Parallelism selects how the GAM-family kernel is scheduled: 0 runs
	// the kernel on the caller's goroutine with unsynchronised state; K ≥ 1
	// runs K root-sharded workers (the internal/exec runtime; K = 1 is its
	// overhead baseline). Both schedule the same Kernel. BFT-family
	// algorithms and MultiQueue scheduling always run on the caller's
	// goroutine, as does any build that never linked the runtime (the
	// engine links it; direct core users import internal/exec for its
	// side effect). With Parallelism > 1, Priority and Score callbacks may
	// be invoked from several goroutines and must be pure; OnResult is
	// serialized but its invocation order is schedule-dependent.
	Parallelism int

	// MaxTrees aborts the search (reporting Stats.Truncated) once this
	// many provenances have been kept; a safety valve for the exponential
	// breadth-first baselines. Zero means no bound.
	MaxTrees int

	// Done, when non-nil, aborts the search once closed, reported like a
	// timeout through Stats.TimedOut. It is how callers propagate
	// context cancellation into a running search.
	Done <-chan struct{}

	// TrackAllocs samples the runtime/metrics heap-allocation counter
	// around the search and reports the delta through Stats.Allocations.
	// Unlike runtime.ReadMemStats, metrics.Read does not stop the world,
	// so the probe is safe on a concurrent server; the counter is
	// process-global, so concurrent searches inflate each other's deltas —
	// treat the number as an observability signal, not a benchmark (use
	// the testing.B benchmarks for that).
	TrackAllocs bool
}

// Result is one (s_1, ..., s_m, t) tuple of a set-based CTP result
// (Definition 2.8). Seeds[i] is the tree's node from seed set i; for
// universal sets it is the tree root (any tree node matches, see
// Definition 2.8's adjustment for N seed sets).
type Result struct {
	Tree  *tree.Tree
	Seeds []graph.NodeID
	Score float64
}

// ResultSet collects CTP results, deduplicated by edge set.
type ResultSet struct {
	Results []Result
}

// Len returns the number of results.
func (r *ResultSet) Len() int { return len(r.Results) }

// Stats reports search effort, matching the quantities plotted in the
// paper (Figure 11 reports Kept, the number of provenances built).
type Stats struct {
	Inits   int // Init provenances kept
	Grows   int // Grow provenances kept
	Merges  int // Merge provenances kept
	MoTrees int // Mo provenances kept (MoESP/MoLESP)

	Created   int // provenances constructed, incl. discarded ones
	Pruned    int // provenances discarded by (rooted or edge-set) pruning
	Spared    int // trees the LESP exemption rescued from pruning
	QueuePops int

	// Hot-path observability (the per-query report ctpserve surfaces).
	Recycled     int    // rejected candidates, their arena space taken back (or never carved)
	PeakTrees    int    // peak live provenances (Created - Recycled high-water)
	PeakQueueLen int    // high-water mark of the grow queue
	Allocations  uint64 // heap allocations during the search (Options.TrackAllocs)

	Results   int
	TimedOut  bool
	Truncated bool // stopped by MaxTrees or Limit
	Duration  time.Duration

	// Parallel-runtime observability (internal/exec). Parallelism is the
	// worker count the search actually ran with (0 on the caller's
	// goroutine); Workers holds one entry per worker.
	Parallelism int
	Workers     []WorkerStats
}

// WorkerStats reports one parallel-search worker's share of the effort.
type WorkerStats struct {
	Ops     int   // grow ops and exchanged tasks processed
	Kept    int   // provenances this worker kept
	Shipped int   // tasks routed to other workers' shards
	BusyNS  int64 // thread CPU time inside the worker loop (0 where unsupported)
	WallNS  int64 // wall time inside the worker loop (spawn to drain)

	// Stolen is always 0: workers do not steal. It stays because the
	// benchmark harness (benchmarks/layers.go) reads it for exec.stolen.
	Stolen int
}

// created counts a freshly constructed provenance and tracks the live
// high-water mark.
func (s *Stats) created() {
	s.Created++
	if live := s.Created - s.Recycled; live > s.PeakTrees {
		s.PeakTrees = live
	}
}

// noteQueueLen tracks the grow-queue high-water mark.
func (s *Stats) noteQueueLen(n int) {
	if n > s.PeakQueueLen {
		s.PeakQueueLen = n
	}
}

// Kept returns the total number of provenances kept — the paper's "number
// of provenances built" metric.
func (s *Stats) Kept() int { return s.Inits + s.Grows + s.Merges + s.MoTrees }

// Search evaluates the CTP defined by the seed sets over g. It returns
// the (possibly filter-restricted) set-based CTP result and search
// statistics. An error is returned only for invalid configurations;
// timeouts and truncations are reported through Stats.
func Search(g *graph.Graph, seeds []SeedSet, opts Options) (*ResultSet, *Stats, error) {
	if len(seeds) == 0 {
		return nil, nil, fmt.Errorf("core: no seed sets")
	}
	if len(seeds) > 1<<16 {
		return nil, nil, fmt.Errorf("core: too many seed sets (%d)", len(seeds))
	}
	allUniversal := true
	for _, s := range seeds {
		if !s.Universal {
			allUniversal = false
			if len(s.Nodes) == 0 {
				// An empty seed set has no matches: the CTP result is empty.
				return &ResultSet{}, &Stats{}, nil
			}
		}
	}
	if allUniversal {
		return nil, nil, fmt.Errorf("core: all seed sets are universal; the search has no anchor")
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = MoLESP
	}
	var a0 uint64
	if opts.TrackAllocs {
		a0 = heapAllocObjects()
	}
	var (
		rs  *ResultSet
		st  *Stats
		err error
	)
	switch opts.Algorithm {
	case BFT, BFTM, BFTAM:
		rs, st, err = contained("core: "+opts.Algorithm.String(), func() (*ResultSet, *Stats, error) {
			return bftSearch(g, seeds, opts)
		})
	case GAM, ESP, MoESP, LESP, MoLESP:
		if opts.Parallelism > 0 && !opts.MultiQueue && parallelKernel != nil {
			// The parallel runtime has its own containment boundaries (one
			// per worker, one around the coordinator).
			rs, st, err = parallelKernel(g, seeds, opts)
		} else {
			rs, st, err = contained("core: "+opts.Algorithm.String(), func() (*ResultSet, *Stats, error) {
				return gamSearch(g, seeds, opts)
			})
		}
	default:
		return nil, nil, fmt.Errorf("core: unknown algorithm %v", opts.Algorithm)
	}
	if opts.TrackAllocs && err == nil {
		st.Allocations = heapAllocObjects() - a0
	}
	return rs, st, err
}

// Caller-goroutine probe points (inert unless armed via internal/fault):
// one per main loop, hit once per queue pop, so a chaos test can land a
// panic on an exact iteration of either driver.
var (
	probeGamPop = fault.Register("core.gam.pop")
	probeBftPop = fault.Register("core.bft.pop")
)

// contained runs a caller-goroutine search behind a panic containment
// boundary: a panic in the search (or in a caller-supplied callback it
// invokes) becomes a structured *fault.PanicError instead of killing
// the process — essential once searches run inside a server.
func contained(name string, kernel func() (*ResultSet, *Stats, error)) (rs *ResultSet, st *Stats, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			rs, st = nil, nil
			err = fault.Recovered(name, rec)
		}
	}()
	return kernel()
}

// parallelKernel is the GAM-family worker runtime internal/exec registers
// at init. A function variable (rather than a direct call) breaks the
// import cycle: exec schedules core's Kernel, so core cannot import it
// back.
var parallelKernel func(g *graph.Graph, seeds []SeedSet, opts Options) (*ResultSet, *Stats, error)

// RegisterParallelKernel installs the Options.Parallelism runtime. It is
// called from internal/exec's init and must not be called concurrently
// with searches.
func RegisterParallelKernel(fn func(g *graph.Graph, seeds []SeedSet, opts Options) (*ResultSet, *Stats, error)) {
	parallelKernel = fn
}

// heapAllocObjects reads the cumulative heap allocation count without
// stopping the world (unlike runtime.ReadMemStats).
func heapAllocObjects() uint64 {
	sample := [1]metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample[:])
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// seedIndex resolves node -> seed-set membership and tracks universal
// sets. It is immutable after buildSeedIndex and safe for concurrent
// readers, which is what lets one Setup serve every worker's Kernel.
type seedIndex struct {
	masks        nodeTable[bitset.Bits] // every mask is words wide
	inits        []graph.NodeID         // the distinct seed nodes, in first-occurrence order
	required     bitset.Bits            // all non-universal set indices
	numSets      int
	words        int // of a numSets-bit signature
	hasUniversal bool
}

func buildSeedIndex(seeds []SeedSet) *seedIndex {
	idx := &seedIndex{numSets: len(seeds), words: (len(seeds) + 63) / 64}
	listed := 0
	for _, s := range seeds {
		if !s.Universal {
			listed += len(s.Nodes)
		}
	}
	idx.inits = make([]graph.NodeID, 0, listed)
	words := make([]uint64, listed*idx.words) // the masks, carved in order
	for i, s := range seeds {
		if s.Universal {
			idx.hasUniversal = true
			continue
		}
		idx.required.Set(i)
		for _, n := range s.Nodes {
			m := idx.masks.at(n)
			if *m == nil {
				*m, words = words[:idx.words:idx.words], words[idx.words:]
				idx.inits = append(idx.inits, n)
			}
			m.Set(i)
		}
	}
	return idx
}

// mask returns the seed-set membership of n (nil for non-seeds).
func (si *seedIndex) mask(n graph.NodeID) bitset.Bits {
	if m := si.masks.find(n); m != nil {
		return *m
	}
	return nil
}

// isSeed reports whether n belongs to any non-universal seed set.
func (si *seedIndex) isSeed(n graph.NodeID) bool { return si.masks.find(n) != nil }

// covers reports whether sat covers every non-universal seed set.
func (si *seedIndex) covers(sat bitset.Bits) bool { return sat.Contains(si.required) }

// seedTuple extracts, for each seed set, the tree's node belonging to it;
// universal sets get the tree root.
func (si *seedIndex) seedTuple(t *tree.Tree) []graph.NodeID {
	out := make([]graph.NodeID, si.numSets)
	for i := range out {
		out[i] = t.Root // default for universal sets
	}
	for _, n := range t.Nodes {
		m := si.mask(n)
		for wi, w := range m {
			for ; w != 0; w &= w - 1 {
				out[wi*64+bits.TrailingZeros64(w)] = n
			}
		}
	}
	return out
}

// labelSet is the LABEL filter compiled to a table indexed by label ID;
// nil means unrestricted.
type labelSet []bool

func (ls labelSet) allows(l graph.LabelID) bool {
	return ls == nil || (int(l) < len(ls) && ls[l])
}

// labelAllow compiles the LABEL filter. Labels absent from the graph
// simply never match.
func labelAllow(g *graph.Graph, labels []string) labelSet {
	if len(labels) == 0 {
		return nil
	}
	out := make(labelSet, g.Labels().Len())
	for _, l := range labels {
		if id, ok := g.LabelIDOf(l); ok {
			out[id] = true
		}
	}
	return out
}

// deadline tracks the TIMEOUT filter and caller cancellation with cheap
// periodic checks.
type deadline struct {
	at    time.Time
	armed bool
	done  <-chan struct{}
	tick  int
}

func newDeadline(timeout time.Duration, done <-chan struct{}) deadline {
	d := deadline{done: done}
	if timeout > 0 {
		d.at = time.Now().Add(timeout)
		d.armed = true
	}
	return d
}

// expired polls the clock and the done channel every 64 calls to stay
// cheap in the hot loop.
func (d *deadline) expired() bool {
	if !d.armed && d.done == nil {
		return false
	}
	d.tick++
	if d.tick&63 != 0 {
		return false
	}
	if d.done != nil {
		select {
		case <-d.done:
			return true
		default:
		}
	}
	return d.armed && time.Now().After(d.at)
}
