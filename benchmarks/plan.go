package benchmarks

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// The five workloads. Names are final: later issues cite them.
const (
	Fig11Grid  = "fig11-grid"
	KGExplore  = "kg-explore"
	ServeHot   = "serve-hot"
	ServeMixed = "serve-mixed"
	LiveMixed  = "live-mixed"
)

// Spec fixes everything about a workload that is not drawn from the seed.
// The rates are constants calibrated once on the commit that introduced
// the benchmark (README.md records the calibration) and never recomputed
// at run time, so a parent commit and a change always get identical load.
type Spec struct {
	Name string
	Why  string
	// SetupReps is how many times set-up (open snapshot → Open/serve.New
	// → warm-up done) runs; setup_s is the median.
	SetupReps int
	// WarmupOps is the fixed number of operations each set-up warms with.
	WarmupOps int
	// RateRPS > 0 marks an HTTP workload: an open-loop phase at that
	// request rate over two connections, then a closed-loop phase with
	// Callers callers (see httpEnv.measure). 0 is a facade workload: a
	// closed loop with one caller.
	RateRPS float64
	// Callers is how many callers the closed-loop phase of an HTTP workload
	// runs back to back. serve-mixed has two, because two classes sharing
	// two slots is what it is about; serve-hot has one, because its
	// subject is the cost of one request's path, and a second caller added
	// only the noise of four goroutines sharing two Ps (its p99 spread
	// 40–60% between identical runs with two callers, 9% with one).
	Callers int
	// LimitMS is the latency limit of an open-loop workload: a read
	// slower than this does not count towards throughput_qps.
	LimitMS float64
	// CacheBytes is the server's query-result cache budget (HTTP only).
	CacheBytes int64
	// WriteBatchesPerS and BatchOps pace live-mixed's writer; PacedShare is
	// the share of the timed window the paced phase (reads beside writes)
	// takes, the rest being the bulk phase (writer alone).
	WriteBatchesPerS float64
	BatchOps         int
	PacedShare       float64
	// BulkBatchesPerS is the calibrated rate of the bulk phase. It paces
	// nothing: it sizes the supply of distinct batches.
	BulkBatchesPerS float64
}

// CompactThreshold is the live store's default compaction threshold in
// delta operations, which live-mixed runs at.
const CompactThreshold = 4096

// Specs lists the workloads in their canonical order.
var Specs = []Spec{
	{
		Name:      Fig11Grid,
		Why:       "tiny cache-resident Figure 11 graphs, m up to 10: nearly all time is core/tree/bitset merge and dedup",
		SetupReps: 9, WarmupOps: 32,
	},
	{
		Name:      KGExplore,
		Why:       "400k-node graph from a snapshot: memory-bound adjacency scans, BGP scans and joins, sharded search; setup is the cold start",
		SetupReps: 3, WarmupOps: 40,
	},
	{
		Name:      ServeHot,
		Why:       "HTTP at 3000 requests/s, then 1 caller back to back; 64 hot queries in a cache that fits them (~90% hits): parse, cache, JSON and net/http are the work, the kernel idles",
		SetupReps: 15, WarmupOps: 400, RateRPS: 3000, Callers: 1, LimitMS: 50, CacheBytes: 64 << 20,
	},
	{
		Name:      ServeMixed,
		Why:       "HTTP at 210 requests/s, then 2 callers; distinct queries, 1 MiB cache (~0% hits): all parsed, admitted, searched, encoded while two classes share two slots; the workload of cheap_p99_ms",
		SetupReps: 9, WarmupOps: 100, RateRPS: 210, Callers: 2, LimitMS: 500, CacheBytes: 1 << 20,
	},
	{
		Name:      LiveMixed,
		Why:       "reads beside a writer paced at 150 batches/s x 16 ops on a live graph, then a bulk ingest: overlay reads, epoch publication, compaction stalls; the workload of write_p99_ms and ingest_ops_per_s",
		SetupReps: 9, WarmupOps: 96,
		WriteBatchesPerS: 150, BatchOps: 16, PacedShare: 0.8, BulkBatchesPerS: 350,
	},
}

// RunSeconds is the timed window every reported number uses; it is
// BENCHMARK.json's run_seconds.
const RunSeconds = 18

// SpecOf returns the named workload's Spec.
func SpecOf(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// Sizes scales the generated knowledge graphs. DefaultSizes is what every
// reported number uses; tests pass something smaller.
type Sizes struct {
	Small int // YAGOLike scale of kg-small
	Large int // YAGOLike scale of kg-large
	// Shrink divides the number of distinct queries per class (1 = full
	// size): the oracle evaluates hundreds of candidates per workload,
	// which a unit test cannot afford.
	Shrink int
}

// DefaultSizes: kg-small ≈ 8k nodes / 26k edges, kg-large ≈ 400k nodes /
// 1.3M edges (snapshot load ≈ 0.7 s here, long enough to repeat well).
var DefaultSizes = Sizes{Small: 2000, Large: 100000, Shrink: 1}

// GraphFile is one generated graph, written as a v2 snapshot.
type GraphFile struct {
	Name        string `json:"name"`
	Path        string `json:"path,omitempty"`
	Fingerprint string `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
}

// Query is one distinct query of a workload with its expected answer.
type Query struct {
	Graph string `json:"graph"`
	Class string `json:"class"`
	Text  string `json:"text"`
	// Rename marks a query whose every use renames the tree variable ?t
	// to ?t<n>: the canonical text, and so the cache key, differs per
	// request while the search and the answer stay the same — a distinct-
	// key stream that needs one oracle evaluation per base query.
	Rename bool `json:"rename,omitempty"`
	// Rows and Digest are the oracle's answer: the row count and a hash of
	// the sorted row keys (see oracle.go), computed through the
	// sequential, uncached facade.
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
	// Kept is the oracle run's kept-provenance count, the deterministic
	// work measure queries are selected by.
	Kept int `json:"kept"`
}

// TextFor returns the text of the n-th use of q.
func (q *Query) TextFor(n int) string {
	if !q.Rename {
		return q.Text
	}
	return strings.ReplaceAll(q.Text, "?t", "?t"+strconv.Itoa(n))
}

// Plan is everything one run of one workload feeds the program: graphs,
// queries with expected answers, the operation sequence and (live-mixed)
// the mutation stream. prepare writes it; the measuring child process
// reads it and never sees the seed.
type Plan struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Graphs   []GraphFile `json:"graphs"`
	Queries  []Query     `json:"queries"`
	// Ops indexes Queries. Closed loops cycle through it (a facade
	// workload's Ops is one cycle of its fixed operation mix); open loops
	// take a prefix sized by rate × seconds (and fail if it is too short).
	Ops []int32 `json:"ops"`
	// LabelDigests selects the label-based row keys (live-mixed, where
	// compaction may renumber the edge IDs MergeKey embeds).
	LabelDigests bool `json:"label_digests,omitempty"`
	// Mutations is the path of live-mixed's mutation stream: the first
	// PacedBatches batches are applied on a schedule, the rest back to back
	// in the bulk phase; each exactly once.
	Mutations    string `json:"mutations,omitempty"`
	PacedBatches int    `json:"paced_batches,omitempty"`
}

// Graph returns the named graph file.
func (p *Plan) Graph(name string) *GraphFile {
	for i := range p.Graphs {
		if p.Graphs[i].Name == name {
			return &p.Graphs[i]
		}
	}
	return nil
}

// WritePlan stores p as JSON.
func WritePlan(path string, p *Plan) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadPlan loads a plan written by WritePlan.
func ReadPlan(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("read plan %s: %w", path, err)
	}
	return &p, nil
}
