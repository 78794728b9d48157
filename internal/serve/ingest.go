package serve

import (
	"fmt"
	"net/http"
	"time"

	"ctpquery"
	"ctpquery/internal/fault"
	"ctpquery/internal/obs"
)

// probeIngest sits between parsing an ingest body and applying its
// batches; chaos tests arm it to verify a failed ingest answers a
// structured error, counts as an ingest failure, and leaves the graph at
// its pre-request epoch.
var probeIngest = fault.Register("serve.ingest")

// ingestResponse is the JSON body answering POST /ingest: what was
// applied and where the store stands now.
type ingestResponse struct {
	// Epoch after the last applied batch; each batch bumps it by one.
	Epoch uint64 `json:"epoch"`
	// Fingerprint of the new epoch, hex-encoded (it keys the query
	// cache, so a client can tell whether two servers converged).
	Fingerprint  string `json:"fingerprint"`
	Batches      int    `json:"batches"`
	NodesAdded   int    `json:"nodes_added"`
	EdgesAdded   int    `json:"edges_added"`
	EdgesDeleted int    `json:"edges_deleted"`
	TypesAdded   int    `json:"types_added"`
	// Store is the delta/compaction snapshot after this ingest — the same
	// shape /stats reports under "store".
	Store map[string]any `json:"store"`
}

// handleIngest applies mutation batches to the served graph. The request
// body is the mutation stream text format (one op per line: "+n label
// types...", "+t node type", "+e src label dst", "-e src label dst";
// blank lines separate batches — each batch applies atomically and bumps
// the epoch). Only servers over a live graph (-live) accept ingest;
// others answer 409. In-flight queries are never disturbed: they hold
// the epoch they pinned at entry.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	if s.Health() == HealthDraining {
		s.drained.Add(1)
		retry := s.drainRetrySeconds()
		w.Header().Set("Retry-After", fmt.Sprint(retry))
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error:       "draining: server is shutting down",
			RetryAfterS: retry,
		})
		return
	}
	g := s.base.Graph()
	if !g.IsLive() {
		s.ingestFailures.Add(1)
		writeJSON(w, http.StatusConflict, errorResponse{
			Error: "graph is frozen: start the server with -live to accept ingest",
		})
		return
	}

	start := time.Now()
	sp := s.tracer.Start("ingest", parentContext(r.Header.Get(obs.TraceHeader)))
	status := "ok"
	defer func() {
		sp.Status(status)
		sp.End()
		s.met.ingestDur.With(status).Observe(time.Since(start).Seconds())
	}()

	batches, err := ctpquery.ReadMutations(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		status = "bad_request"
		s.ingestFailures.Add(1)
		sp.Error(err)
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if len(batches) == 0 {
		status = "bad_request"
		s.ingestFailures.Add(1)
		err := fmt.Errorf("empty ingest body (no operations)")
		sp.Error(err)
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if err := probeIngest.Err(); err != nil {
		status = "internal_error"
		s.ingestFailures.Add(1)
		s.internalErrors.Add(1)
		sp.Error(err)
		s.fail(w, http.StatusInternalServerError, err)
		return
	}

	var resp ingestResponse
	for i, b := range batches {
		res, err := s.base.Mutate(b)
		if err != nil {
			// Batches before i are applied and stay applied (each is its
			// own epoch): count them, and report how far we got alongside
			// the error.
			s.countIngest(&resp)
			status = "bad_request"
			s.ingestFailures.Add(1)
			sp.Error(err)
			s.fail(w, http.StatusBadRequest,
				fmt.Errorf("batch %d of %d: %w (previous batches applied)", i+1, len(batches), err))
			return
		}
		resp.Epoch = res.Epoch
		resp.Fingerprint = fmt.Sprintf("%016x", res.Fingerprint)
		resp.Batches++
		resp.NodesAdded += res.NodesAdded
		resp.EdgesAdded += res.EdgesAdded
		resp.EdgesDeleted += res.EdgesDeleted
		resp.TypesAdded += res.TypesAdded
	}
	ops := s.countIngest(&resp)
	sp.AttrInt("batches", int64(resp.Batches)).AttrInt("ops", ops).AttrInt("epoch", int64(resp.Epoch))
	if st, ok := g.StoreStats(); ok {
		resp.Store = storeJSON(st)
	}
	writeJSON(w, http.StatusOK, resp)
}

// countIngest adds the batches and ops resp reports applied to the
// ingest counters, and returns the ops.
func (s *Server) countIngest(resp *ingestResponse) int64 {
	ops := int64(resp.NodesAdded + resp.EdgesAdded + resp.EdgesDeleted + resp.TypesAdded)
	s.ingestBatches.Add(int64(resp.Batches))
	s.ingestOps.Add(ops)
	return ops
}

// storeJSON renders StoreStats for /ingest responses and /stats.
func storeJSON(st ctpquery.StoreStats) map[string]any {
	return map[string]any{
		"epoch":              st.Epoch,
		"fingerprint":        fmt.Sprintf("%016x", st.Fingerprint),
		"base_gen":           st.BaseGen,
		"base_nodes":         st.BaseNodes,
		"base_edges":         st.BaseEdges,
		"added_nodes":        st.AddedNodes,
		"delta_edges":        st.DeltaEdges,
		"dead_edges":         st.DeadEdges,
		"types_added":        st.TypesAdded,
		"pending_ops":        st.PendingOps,
		"compact_threshold":  st.CompactThreshold,
		"compacting":         st.Compacting,
		"compactions":        st.Compactions,
		"compact_aborts":     st.CompactAborts,
		"last_compaction_ms": float64(st.LastCompactNS) / 1e6,
	}
}

// noteCompaction is the live store's compaction observer: every attempt
// becomes a trace in the flight recorder (aborts flagged and carrying
// their error), so "why did p99 wobble at 14:03" has an answer.
func (s *Server) noteCompaction(ci ctpquery.CompactionInfo) {
	sp := s.tracer.Start("graph.compact", obs.SpanContext{})
	sp.AttrInt("epoch", int64(ci.Epoch)).
		AttrInt("base_gen", int64(ci.BaseGen)).
		Attr("duration", ci.Duration.String()).
		AttrBool("aborted", ci.Aborted)
	if ci.Err != nil {
		sp.Error(ci.Err)
		sp.Status("aborted")
	}
	sp.End()
}
