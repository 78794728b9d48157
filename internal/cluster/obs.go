package cluster

import (
	"net/http"
	"time"

	"ctpquery/internal/obs"
)

// coordMetrics is the coordinator's hot-path instrument set; everything
// else on /metrics is the counter table (Coordinator.table).
type coordMetrics struct {
	// gatherDur is the end-to-end POST /query latency, by terminal
	// outcome ("ok", "degraded", "failed", "error").
	gatherDur *obs.HistogramVec
	// breakerTransitions counts circuit-breaker state changes by edge,
	// fed by the per-shard transition hook.
	breakerTransitions *obs.CounterVec
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	return &coordMetrics{
		gatherDur: reg.NewHistogramVec("ctpcoord_gather_duration_seconds",
			"End-to-end coordinator query latency by gather outcome.",
			nil, "outcome"),
		breakerTransitions: reg.NewCounterVec("ctpcoord_breaker_transitions_total",
			"Circuit-breaker state transitions by edge.",
			"from", "to"),
	}
}

// groupSnap is one group's shard stats, an element of /stats "groups".
type groupSnap struct {
	Group  string       `json:"group"`
	Shards []shardStats `json:"shards"`
}

// healthValue maps the folded cluster health to a numeric gauge.
func healthValue(status string) float64 {
	switch status {
	case "ok":
		return 0
	case "degraded":
		return 1
	case "draining":
		return 2
	default: // down
		return 3
	}
}

// table is the coordinator's counter table (obs.Stat): /stats renders
// its keys, /metrics its families, each value loaded once per render.
func (c *Coordinator) table() []obs.Stat {
	status, _ := c.clusterHealth()
	var groups []groupSnap
	var shards []shardStats
	for i, g := range c.groups {
		gs := groupSnap{Group: c.groupNames[i]}
		for _, sh := range g {
			gs.Shards = append(gs.Shards, sh.stats())
		}
		groups = append(groups, gs)
		shards = append(shards, gs.Shards...)
	}
	rows := []obs.Stat{
		{Key: "uptime_s", Name: "ctpcoord_uptime_seconds", Help: "Seconds since the coordinator started.", Type: "gauge", Value: time.Since(c.started).Seconds()},
		{Key: "health", Value: status},
		{Name: "ctpcoord_health_state", Help: "Folded cluster health (0 ok, 1 degraded, 2 draining, 3 down).", Type: "gauge", Value: healthValue(status)},
		{Key: "queries", Name: "ctpcoord_queries_total", Help: "Gathers executed.", Type: "counter", Value: c.queries.Load()},
		{Key: "degraded_gathers", Name: "ctpcoord_degraded_gathers_total", Help: "200s answered with a degraded block.", Type: "counter", Value: c.degraded.Load()},
		{Key: "failed_gathers", Name: "ctpcoord_failed_gathers_total", Help: "Gathers with zero answering groups.", Type: "counter", Value: c.failed.Load()},
		{Key: "hedges", Name: "ctpcoord_hedges_total", Help: "Hedged second requests launched.", Type: "counter", Value: c.hedges.Load()},
		{Key: "hedge_wins", Name: "ctpcoord_hedge_wins_total", Help: "Hedges that answered first.", Type: "counter", Value: c.hedgeWins.Load()},
		{Key: "retries", Name: "ctpcoord_retries_total", Help: "Attempts beyond the first, per group.", Type: "counter", Value: c.retries.Load()},
		{Key: "health_probes", Name: "ctpcoord_health_probes_total", Help: "Background /healthz probes issued.", Type: "counter", Value: c.probes.Load()},
		{Key: "panics_contained", Name: "ctpcoord_panics_contained_total", Help: "Panics contained by the HTTP middleware.", Type: "counter", Value: c.panics.Load()},
		{Key: "groups", Value: groups},
	}
	for _, f := range []struct {
		name, help, typ string
		get             func(shardStats) float64
	}{
		{"ctpcoord_shard_health", "Shard health color (0 unknown, 1 ok, 2 degraded, 3 draining, 4 down).", "gauge",
			func(s shardStats) float64 { return shardHealthValue(s.Health) }},
		{"ctpcoord_shard_breaker_state", "Shard breaker position (0 closed, 1 open, 2 half-open).", "gauge",
			func(s shardStats) float64 { return breakerStateValue(s.Breaker) }},
		{"ctpcoord_shard_breaker_opens_total", "Times the shard's breaker tripped open.", "counter",
			func(s shardStats) float64 { return float64(s.BreakerOpens) }},
		{"ctpcoord_shard_sent_total", "Attempts delivered to the shard.", "counter",
			func(s shardStats) float64 { return float64(s.Sent) }},
		{"ctpcoord_shard_failures_total", "Attempts classified as shard failures.", "counter",
			func(s shardStats) float64 { return float64(s.Failures) }},
		{"ctpcoord_shard_cancelled_total", "Attempts abandoned by the coordinator.", "counter",
			func(s shardStats) float64 { return float64(s.Cancelled) }},
		{"ctpcoord_shard_hedges_total", "Attempts launched as hedges against the shard.", "counter",
			func(s shardStats) float64 { return float64(s.Hedges) }},
		{"ctpcoord_shard_ewma_latency_seconds", "Smoothed successful-attempt latency.", "gauge",
			func(s shardStats) float64 { return s.EwmaMS / 1e3 }},
	} {
		for _, s := range shards {
			rows = append(rows, obs.Stat{Name: f.name, Help: f.help, Type: f.typ,
				Labels: []obs.Label{{Name: "shard", Value: s.Shard}}, Value: f.get(s)})
		}
	}

	started, ended, dropped := c.tracer.SpanCounts()
	tStarted, tFinished, tSlow := c.tracer.TraceCounts()
	return append(rows,
		obs.Stat{Name: "ctpcoord_trace_spans_started_total", Help: "Spans started by the coordinator tracer.", Type: "counter", Value: started},
		obs.Stat{Name: "ctpcoord_trace_spans_ended_total", Help: "Spans ended (started==ended once settled).", Type: "counter", Value: ended},
		obs.Stat{Name: "ctpcoord_trace_spans_dropped_total", Help: "Spans ended after their trace finalized (hedge losers).", Type: "counter", Value: dropped},
		obs.Stat{Name: "ctpcoord_traces_started_total", Help: "Gather traces started.", Type: "counter", Value: tStarted},
		obs.Stat{Name: "ctpcoord_traces_finished_total", Help: "Gather traces finalized into the flight recorder.", Type: "counter", Value: tFinished},
		obs.Stat{Name: "ctpcoord_traces_slow_total", Help: "Gather traces past the slow-query threshold.", Type: "counter", Value: tSlow},
	)
}

func shardHealthValue(s string) float64 {
	switch s {
	case "unknown":
		return 0
	case "ok":
		return 1
	case "degraded":
		return 2
	case "draining":
		return 3
	default: // down
		return 4
	}
}

func breakerStateValue(s string) float64 {
	switch s {
	case "closed":
		return 0
	case "open":
		return 1
	default: // half-open
		return 2
	}
}

// Tracer exposes the coordinator's tracer (flight recorder) to tests
// and the in-process smokes.
func (c *Coordinator) Tracer() *obs.Tracer { return c.tracer }

// Registry exposes the coordinator's metric registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// gatherOutcome classifies a finished gather for the latency histogram.
func gatherOutcome(gr *GatherResponse) string {
	switch {
	case gr.StatusCode == http.StatusOK && gr.Degraded == nil:
		return "ok"
	case gr.StatusCode == http.StatusOK:
		return "degraded"
	case gr.StatusCode == http.StatusServiceUnavailable:
		return "failed"
	default:
		return "error"
	}
}
