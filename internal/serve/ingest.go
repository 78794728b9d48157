package serve

import (
	"fmt"
	"net/http"
	"time"

	"ctpquery"
	"ctpquery/internal/fault"
	"ctpquery/internal/obs"
	"ctpquery/internal/wire"
)

// probeIngest sits between parsing an ingest body and applying its
// batches; chaos tests arm it to verify a failed ingest answers a
// structured error, counts as an ingest failure, and leaves the graph at
// its pre-request epoch.
var probeIngest = fault.Register("serve.ingest")

// handleIngest applies mutation batches to the served graph. The request
// body is the mutation stream text format (one op per line: "+n label
// types...", "+t node type", "+e src label dst", "-e src label dst";
// blank lines separate batches — each batch applies atomically and bumps
// the epoch). Only servers over a live graph (-live) accept ingest;
// others answer 409. In-flight queries are never disturbed: they hold
// the epoch they pinned at entry.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteJSON(w, http.StatusMethodNotAllowed, wire.Error{Error: "POST only"})
		return
	}
	if s.Health() == HealthDraining {
		s.refuseDraining(w)
		return
	}
	g := s.base.Graph()
	if !g.IsLive() {
		s.ingestFailures.Add(1)
		wire.WriteJSON(w, http.StatusConflict, wire.Error{
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

	var resp wire.Ingest
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
		resp.Store = obs.JSON(storeRows("", st))
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// countIngest adds the batches and ops resp reports applied to the
// ingest counters, and returns the ops.
func (s *Server) countIngest(resp *wire.Ingest) int64 {
	ops := int64(resp.NodesAdded + resp.EdgesAdded + resp.EdgesDeleted + resp.TypesAdded)
	s.ingestBatches.Add(int64(resp.Batches))
	s.ingestOps.Add(ops)
	return ops
}

// storeRows is the store's part of the counter table, its keys under
// prefix: "store." in /stats, none in an /ingest answer's store object.
func storeRows(prefix string, st ctpquery.StoreStats) []obs.Stat {
	return []obs.Stat{
		{Key: prefix + "epoch", Name: "ctp_store_epoch", Help: "Current graph epoch (one per applied batch; compaction keeps it).", Type: "gauge", Value: st.Epoch},
		{Key: prefix + "fingerprint", Value: fmt.Sprintf("%016x", st.Fingerprint)},
		{Key: prefix + "base_gen", Name: "ctp_store_base_gen", Help: "Compacted-base generation (bumps when a compaction lands).", Type: "gauge", Value: st.BaseGen},
		{Key: prefix + "base_nodes", Value: st.BaseNodes},
		{Key: prefix + "base_edges", Value: st.BaseEdges},
		{Key: prefix + "delta_edges", Name: "ctp_store_delta_edges", Help: "Edges resident in the delta overlay.", Type: "gauge", Value: st.DeltaEdges},
		{Key: prefix + "added_nodes", Name: "ctp_store_added_nodes", Help: "Nodes added since the last compaction.", Type: "gauge", Value: st.AddedNodes},
		{Key: prefix + "dead_edges", Name: "ctp_store_dead_edges", Help: "Base edges tombstoned since the last compaction.", Type: "gauge", Value: st.DeadEdges},
		{Key: prefix + "types_added", Value: st.TypesAdded},
		{Key: prefix + "pending_ops", Name: "ctp_store_pending_ops", Help: "Delta ops accumulated toward the compaction threshold.", Type: "gauge", Value: st.PendingOps},
		{Key: prefix + "compact_threshold", Value: st.CompactThreshold},
		{Key: prefix + "compacting", Name: "ctp_store_compacting", Help: "1 while a background compaction is rebuilding the base.", Type: "gauge", Value: st.Compacting},
		{Key: prefix + "compactions", Name: "ctp_store_compactions_total", Help: "Background compactions that landed a new base.", Type: "counter", Value: st.Compactions},
		{Key: prefix + "compact_aborts", Name: "ctp_store_compact_aborts_total", Help: "Compactions aborted by a contained panic or replay failure.", Type: "counter", Value: st.CompactAborts},
		{Key: prefix + "last_compaction_ms", Value: float64(st.LastCompactNS) / 1e6},
		{Name: "ctp_store_last_compaction_seconds", Help: "Wall time of the most recent compaction.", Type: "gauge", Value: float64(st.LastCompactNS) / 1e9},
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
