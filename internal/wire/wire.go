// Package wire declares the HTTP contract of ctpserve and ctpcoord once:
// the body of POST /query and its answer, the error body of every other
// status, the answer of POST /ingest, and the JSON writer and panic
// boundary both servers answer through. internal/serve encodes these
// types, internal/cluster decodes, merges and forwards them, and
// internal/load sends and reads them, so the three cannot drift apart.
// The search report (Search) reaches further down: the engine fills it
// and its spans carry it, and the ctpquery facade returns it.
package wire

import (
	"encoding/json"
	"net/http"
	"strconv"

	"ctpquery/internal/obs"
)

// Request is the body of POST /query. Every field but Query may be
// omitted; zero values select the server's defaults.
type Request struct {
	// Query is the EQL query text (required).
	Query string `json:"query"`
	// TimeoutMS bounds the request's CTP searches, in milliseconds;
	// capped by the server's -max-timeout. 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Algorithm overrides the server's CTP algorithm (BFT, BFT-M, BFT-AM,
	// GAM, ESP, MoESP, LESP, MoLESP).
	Algorithm string `json:"algorithm,omitempty"`
	// Parallelism overrides the server's per-search worker count: 0
	// forces the sequential kernel, -1 GOMAXPROCS, K > 1 shards the search
	// across K workers, clamped to the server's -max-parallelism. Absent
	// means the server default.
	Parallelism *int `json:"parallelism,omitempty"`
	// MaxRows caps the rows serialized into the answer; capped by the
	// server's -max-rows. 0 uses the server default.
	MaxRows int `json:"max_rows,omitempty"`
	// OmitTrees leaves connecting trees out of the answer (tree cells then
	// carry only the edge count).
	OmitTrees bool `json:"omit_trees,omitempty"`
	// IncludeKeys adds one canonical merge key per serialized row
	// (RowKeys) — what a cluster coordinator orders and dedups gathered
	// rows by. The coordinator forces it on multi-group gathers and strips
	// the keys again unless its own client asked for them.
	IncludeKeys bool `json:"include_keys,omitempty"`
}

// Response answers POST /query. R is the row type: the server encodes
// Row values, while the coordinator keeps each row as json.RawMessage,
// so it merges and forwards rows without reading their cells. A refusal
// decodes into a Response too: its body is an Error, whose fields
// Response shares.
type Response[R any] struct {
	// StatusCode is the HTTP status the answer arrived with, for clients
	// that decode it; it is not part of the body.
	StatusCode int `json:"-"`

	Columns []string `json:"columns"`
	Rows    []R      `json:"rows"`
	// RowKeys, present when the request set include_keys, holds one
	// canonical merge key per serialized row (ctpquery.Results.MergeKey):
	// identical logical rows on different replicas encode identically, and
	// lexicographic key order is the collector's canonical result order.
	RowKeys []string `json:"row_keys,omitempty"`
	// RowCount is the full result size; len(Rows) may be smaller when
	// max_rows trimmed the answer (flagged by RowsTruncated).
	RowCount      int     `json:"row_count"`
	RowsTruncated bool    `json:"rows_truncated,omitempty"`
	TimedOut      bool    `json:"timed_out"`
	Truncated     bool    `json:"truncated,omitempty"`
	Algorithm     string  `json:"algorithm,omitempty"`
	TimingsMS     Timings `json:"timings_ms"`
	// Search reports the query's CTP search effort. On a cache hit it is
	// the effort of the run that populated the entry. A merged gather
	// drops it in favour of its per-shard cluster report.
	Search *Search `json:"search,omitempty"`
	// Cache reports how the result cache served the request; absent when
	// the server runs without -cache-bytes.
	Cache *Cache `json:"cache,omitempty"`
	// Admission reports how the admission layer scheduled the request;
	// absent when the server runs without admission control.
	Admission *Admission `json:"admission,omitempty"`
	// Error and RetryAfterS are a refusal's Error body.
	Error       string `json:"error,omitempty"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
	// TraceID names the request's trace in the flight recorder (GET
	// /debug/traces?id=); absent when tracing is off. A shard behind a
	// coordinator adopts the coordinator's trace ID from the propagated
	// Traceparent header, so the two recorders' span trees join.
	TraceID string `json:"trace_id,omitempty"`
}

// Row is one result row as the server encodes it: a cell per column.
type Row = map[string]Cell

// Cell is one value of a row: a node (ID and label) or, for a CONNECT
// tree variable, a connecting tree.
type Cell struct {
	ID    *int32 `json:"id,omitempty"`
	Label string `json:"label,omitempty"`
	Tree  *Tree  `json:"tree,omitempty"`
}

// Tree is a connecting tree: its edge count, and unless the request set
// omit_trees, its root and edges.
type Tree struct {
	Size  int    `json:"size"`
	Root  string `json:"root,omitempty"`
	Edges []Edge `json:"edges,omitempty"`
}

// Edge is one tree edge by node and edge labels.
type Edge struct {
	Src   string `json:"src"`
	Label string `json:"label"`
	Dst   string `json:"dst"`
}

// Timings are the per-phase evaluation times, in milliseconds.
type Timings struct {
	BGP   float64 `json:"bgp"`
	CTP   float64 `json:"ctp"`
	Join  float64 `json:"join"`
	Total float64 `json:"total"`
}

// Search is the one search-effort report (ctpquery.SearchStats is an
// alias): how many provenance trees the CTP searches built and kept (the
// paper's Figure 11 metric), how hard the queues and the allocator were
// pushed, and what BGP evaluation read. The engine fills it from each
// CONNECT clause's kernel counters; it is one query's report on /query,
// the server's totals on /stats, and, through Attrs, the attributes of
// the engine's bgp, ctp[i] and worker[j] spans.
type Search struct {
	// TreesGenerated counts every provenance tree constructed, including
	// ones discarded as duplicates.
	TreesGenerated int `json:"trees_generated"`
	// TreesKept counts the provenances retained.
	TreesKept int `json:"trees_kept"`
	// TreesRecycled counts rejected candidates: duplicates whose space the
	// search's arena took back, or that were never built.
	TreesRecycled int `json:"trees_recycled"`
	// PeakTrees is the largest number of live provenances at any instant,
	// summed over CONNECT clauses.
	PeakTrees int `json:"peak_trees"`
	// PeakQueueLen is the largest grow-queue length over all clauses.
	PeakQueueLen int `json:"peak_queue_len"`
	// Allocations is the heap allocation count of the searches, sampled
	// only with TrackAllocs (0 otherwise).
	Allocations uint64 `json:"allocations"`
	// BGPExamined and BGPRows are the edges BGP evaluation examined and
	// the rows it materialized (absent without a BGP).
	BGPExamined int `json:"bgp_examined,omitempty"`
	BGPRows     int `json:"bgp_rows,omitempty"`
	// Parallelism is the largest worker count any CONNECT search ran with
	// (absent for the sequential kernel); Workers breaks the effort down
	// per worker, index-aligned across searches.
	Parallelism int      `json:"parallelism,omitempty"`
	Workers     []Worker `json:"workers,omitempty"`
}

// Worker is one parallel-search worker's share of the effort.
type Worker struct {
	// Ops counts grow opportunities and exchange tasks processed.
	Ops int `json:"ops"`
	// Kept counts the provenance trees this worker retained.
	Kept int `json:"kept"`
	// Shipped counts tasks routed to other workers' shards.
	Shipped int `json:"shipped"`
	// BusyMS is the worker's thread CPU time (0 where unsupported); the
	// maximum over workers approximates the search's critical path.
	BusyMS float64 `json:"busy_ms"`
}

// Add folds o into s: the counters sum, PeakQueueLen and Parallelism keep
// the larger value, and workers sum index-aligned. PeakTrees sums too,
// since the searches of one query may be live together. It is the one
// fold behind a query's report (over its CONNECT clauses) and a server's
// totals (over queries).
func (s *Search) Add(o Search) {
	s.TreesGenerated += o.TreesGenerated
	s.TreesKept += o.TreesKept
	s.TreesRecycled += o.TreesRecycled
	s.PeakTrees += o.PeakTrees
	s.PeakQueueLen = max(s.PeakQueueLen, o.PeakQueueLen)
	s.Allocations += o.Allocations
	s.BGPExamined += o.BGPExamined
	s.BGPRows += o.BGPRows
	s.Parallelism = max(s.Parallelism, o.Parallelism)
	if n := len(o.Workers); n > len(s.Workers) {
		s.Workers = append(s.Workers, make([]Worker, n-len(s.Workers))...)
	}
	for i, w := range o.Workers {
		t := &s.Workers[i]
		t.Ops += w.Ops
		t.Kept += w.Kept
		t.Shipped += w.Shipped
		t.BusyMS += w.BusyMS
	}
}

// Attrs renders the report's non-zero counters as span attributes under
// their JSON keys, so a trace reads like the /query report it sums to.
// Workers are left out: each is a span of its own (Worker.Attrs).
func (s Search) Attrs() []obs.Attr {
	attrs := make([]obs.Attr, 0, 9)
	for _, c := range []struct {
		key string
		v   uint64
	}{
		{"trees_generated", uint64(s.TreesGenerated)},
		{"trees_kept", uint64(s.TreesKept)},
		{"trees_recycled", uint64(s.TreesRecycled)},
		{"peak_trees", uint64(s.PeakTrees)},
		{"peak_queue_len", uint64(s.PeakQueueLen)},
		{"allocations", s.Allocations},
		{"bgp_examined", uint64(s.BGPExamined)},
		{"bgp_rows", uint64(s.BGPRows)},
		{"parallelism", uint64(s.Parallelism)},
	} {
		if c.v != 0 {
			attrs = append(attrs, obs.Attr{Key: c.key, Val: strconv.FormatUint(c.v, 10)})
		}
	}
	return attrs
}

// Attrs renders the worker's share as span attributes under its JSON
// keys, zeros included.
func (w Worker) Attrs() []obs.Attr {
	return []obs.Attr{
		{Key: "ops", Val: strconv.Itoa(w.Ops)},
		{Key: "kept", Val: strconv.Itoa(w.Kept)},
		{Key: "shipped", Val: strconv.Itoa(w.Shipped)},
		{Key: "busy_ms", Val: strconv.FormatFloat(w.BusyMS, 'f', -1, 64)},
	}
}

// Cache is the per-request cache report.
type Cache struct {
	// Hit: served from a stored entry, no search ran.
	Hit bool `json:"hit"`
	// Coalesced: the request waited on an identical in-flight query
	// instead of running its own search (singleflight).
	Coalesced bool `json:"coalesced"`
}

// Admission is the per-request admission report: what the request was
// estimated to cost, what it cost, and what that cost it in queueing.
type Admission struct {
	// Class is the scheduling class ("cheap" or "analytical").
	Class string `json:"class"`
	// EstimatedUnits is the pre-execution cost estimate.
	EstimatedUnits float64 `json:"estimated_units"`
	// ActualUnits is the measured effort (absent on cache hits and
	// coalesced waiters, which searched nothing).
	ActualUnits float64 `json:"actual_units,omitempty"`
	// Learned: the estimate came from observed feedback rather than the
	// static model.
	Learned bool `json:"learned,omitempty"`
	// QueueWaitMS is time spent waiting for an execution slot.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	// CacheBypass: a warm cache entry answered the request without it
	// ever entering the admission queue.
	CacheBypass bool `json:"cache_bypass,omitempty"`
}

// Error is the body of every answer that is not a 200.
type Error struct {
	Error string `json:"error"`
	// RetryAfterS mirrors the Retry-After header of 429 and 503 answers,
	// for clients that only read bodies.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// Ingest answers POST /ingest: what was applied and where the store
// stands now.
type Ingest struct {
	// Epoch after the last applied batch; each batch bumps it by one.
	Epoch uint64 `json:"epoch"`
	// Fingerprint of the new epoch, hex-encoded (it keys the query cache,
	// so a client can tell whether two servers converged).
	Fingerprint  string `json:"fingerprint"`
	Batches      int    `json:"batches"`
	NodesAdded   int    `json:"nodes_added"`
	EdgesAdded   int    `json:"edges_added"`
	EdgesDeleted int    `json:"edges_deleted"`
	TypesAdded   int    `json:"types_added"`
	// Store is the store's state after the ingest, the object /stats
	// reports under "store".
	Store map[string]any `json:"store"`
}

// WriteJSON answers with code and v as the JSON body. HTML escaping is
// off: a label such as "AT&T <x>" reaches the client as the graph holds
// it, and a row a coordinator forwards leaves it byte for byte as the
// shard wrote it.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// Recover is a server's outermost containment boundary: a panic escaping
// next answers 500 with an Error body carrying onPanic's message, and the
// process keeps serving. onPanic also does the server's accounting. A
// response already under way gets no second header; http.ErrAbortHandler,
// the standard library's deliberate abort, is re-panicked. Deferred calls
// in the handler (an admission release, in-flight accounting) run during
// the unwind, before this recover.
func Recover(next http.Handler, onPanic func(r *http.Request, rec any) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			msg := onPanic(r, rec)
			if !sw.wrote {
				WriteJSON(sw, http.StatusInternalServerError, Error{Error: msg})
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// statusWriter records whether a handler started its response, so
// Recover knows whether a 500 can still be sent.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}
