package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctpquery/internal/obs"
	"ctpquery/internal/wire"
)

// Config tunes a Coordinator. Zero values take the documented defaults.
type Config struct {
	// ProbeInterval is the background health sweep period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout caps one /healthz probe (default 1s).
	ProbeTimeout time.Duration
	// DefaultTimeout is the whole-gather budget when the client request
	// names no timeout_ms (default 10s).
	DefaultTimeout time.Duration
	// ShardTimeout caps one shard attempt; 0 lets an attempt use the
	// whole remaining gather budget. Setting it below the gather budget
	// is what lets retries and hedges fire before the budget is gone.
	ShardTimeout time.Duration
	// HedgeAfter launches a second request to another replica when the
	// primary hasn't answered within this duration; 0 disables hedging.
	HedgeAfter time.Duration
	// MaxAttempts bounds attempts per group, hedges included
	// (default: number of members + 1, floored at 2).
	MaxAttempts int
	// RetryBase/RetryMax shape the capped exponential backoff (with
	// ±25% jitter) between retry rounds once every member has been
	// tried (defaults 25ms / 1s). Queries are idempotent reads, so
	// retrying against a replica is always safe.
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerThreshold consecutive failures open a shard's breaker
	// (default 3); BreakerCooldown is its open hold-time before a
	// half-open probe is admitted (default 3s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DrainGrace sizes the Retry-After on 503s the coordinator sends
	// while draining (default 5s), mirroring ctpserve's -drain-grace.
	DrainGrace time.Duration
	// TraceOff disables the coordinator's flight recorder; every span
	// call degrades to one atomic load.
	TraceOff bool
	// TraceRing sizes the completed-gather trace ring (default 256).
	TraceRing int
	// SlowQuery logs gathers slower than this and pins their traces in
	// the slow ring; 0 disables the slow log.
	SlowQuery time.Duration
	// TraceLogf receives slow-gather log lines; nil uses log.Printf.
	TraceLogf func(format string, args ...any)
}

func (cfg Config) withDefaults(maxMembers int) Config {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = maxMembers + 1
		if cfg.MaxAttempts < 2 {
			cfg.MaxAttempts = 2
		}
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 25 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 3 * time.Second
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	return cfg
}

// Group declares one routing group: Members are replicas of the same
// data slice; distinct groups partition the data and are all scattered.
type Group struct {
	Name    string
	Members []Transport
}

// errNoRoutable means every member of a group was draining or
// breaker-open when the gather tried to route.
var errNoRoutable = errors.New("no routable shard in group")

// Coordinator scatter-gathers queries across shard groups.
type Coordinator struct {
	cfg        Config
	groupNames []string
	groups     [][]*Shard
	rr         []atomic.Int64 // per-group rotation cursor

	probeWG sync.WaitGroup

	tracer *obs.Tracer
	reg    *obs.Registry
	met    *coordMetrics

	started   time.Time
	queries   atomic.Int64
	degraded  atomic.Int64 // 200s carrying a degraded block
	failed    atomic.Int64 // gathers with zero answering groups
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	retries   atomic.Int64
	probes    atomic.Int64
	panics    atomic.Int64
	draining  atomic.Bool
}

// New builds a Coordinator over the given groups.
func New(cfg Config, groups []Group) (*Coordinator, error) {
	if len(groups) == 0 {
		return nil, errors.New("cluster: no groups")
	}
	maxMembers := 0
	for _, g := range groups {
		if len(g.Members) > maxMembers {
			maxMembers = len(g.Members)
		}
	}
	cfg = cfg.withDefaults(maxMembers)
	c := &Coordinator{
		cfg:     cfg,
		rr:      make([]atomic.Int64, len(groups)),
		started: time.Now(),
	}
	c.tracer = obs.NewTracer(obs.TraceConfig{
		Disabled:  cfg.TraceOff,
		RingSize:  cfg.TraceRing,
		SlowQuery: cfg.SlowQuery,
		Logf:      cfg.TraceLogf,
	})
	c.reg = obs.NewRegistry()
	c.met = newCoordMetrics(c.reg)
	seen := make(map[string]bool)
	for i, g := range groups {
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("g%d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("cluster: duplicate group name %q", name)
		}
		seen[name] = true
		if len(g.Members) == 0 {
			return nil, fmt.Errorf("cluster: group %q has no members", name)
		}
		shards := make([]*Shard, len(g.Members))
		for j, tr := range g.Members {
			shards[j] = newShard(name, tr, cfg.BreakerThreshold, cfg.BreakerCooldown)
			// Breaker edges feed the transition counter; the hook runs
			// under the breaker lock, so it must stay this small.
			shards[j].br.onTransition = func(from, to BreakerState) {
				c.met.breakerTransitions.With(from.String(), to.String()).Inc()
			}
		}
		c.groupNames = append(c.groupNames, name)
		c.groups = append(c.groups, shards)
	}
	c.reg.Collect(func(e *obs.Exposition) { e.Table(c.table()) })
	return c, nil
}

// Shards returns the coordinator's shards, grouped (read-side: tests).
func (c *Coordinator) Shards() [][]*Shard { return c.groups }

// SetDraining flips the coordinator to refuse new queries with 503 +
// Retry-After so its own load balancer rotates it out; irreversible,
// matching the shard-side contract.
func (c *Coordinator) SetDraining() { c.draining.Store(true) }

// Degraded names the shard groups a gather could not reach; the rows
// are complete for every group not listed.
type Degraded struct {
	MissingShards []string `json:"missing_shards"`
	Reason        string   `json:"reason"`
}

// GatherInfo is the per-gather cluster report.
type GatherInfo struct {
	Groups   int           `json:"groups"`
	GroupsOK int           `json:"groups_ok"`
	Merged   bool          `json:"merged"`
	Hedges   int           `json:"hedges,omitempty"`
	Retries  int           `json:"retries,omitempty"`
	Attempts []attemptInfo `json:"attempts,omitempty"`
}

type attemptInfo struct {
	Shard     string  `json:"shard"`
	Status    int     `json:"status,omitempty"`
	Hedge     bool    `json:"hedge,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	Error     string  `json:"error,omitempty"`
}

// GatherResponse is the coordinator's answer to one query: the merged
// shard Response plus the cluster report and, on partial coverage, the
// structured degraded block.
type GatherResponse struct {
	StatusCode int `json:"-"`
	*Response
	Degraded *Degraded   `json:"degraded,omitempty"`
	Cluster  *GatherInfo `json:"cluster,omitempty"`
	// TraceID is the coordinator's gather trace. It shadows the embedded
	// shard Response.TraceID in the JSON answer (shallower field wins),
	// which is by design: under propagation both hold the same ID.
	TraceID string `json:"trace_id,omitempty"`
}

// Gather executes one request across every group and merges the
// answers. It never returns nil; total outage comes back as a 503
// GatherResponse whose Degraded block lists every group.
func (c *Coordinator) Gather(ctx context.Context, req *Request) *GatherResponse {
	c.queries.Add(1)
	if _, ok := ctx.Deadline(); !ok {
		budget := c.cfg.DefaultTimeout
		if req.TimeoutMS > 0 {
			// The shard-side engine budget plus headroom for transport,
			// retries, and the merge.
			budget = time.Duration(req.TimeoutMS)*time.Millisecond + 500*time.Millisecond
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}

	multi := len(c.groups) > 1
	sreq := *req
	if multi {
		// The merge needs the canonical keys even if the client didn't
		// ask; they are stripped again below.
		sreq.IncludeKeys = true
	}

	type groupResult struct {
		resp *Response
		atts []attemptInfo
		err  error
	}
	results := make([]groupResult, len(c.groups))
	var wg sync.WaitGroup
	for i := range c.groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gsp := obs.FromContext(ctx).Child("group")
			gsp.Attr("group", c.groupNames[i])
			resp, atts, err := c.queryGroup(obs.With(ctx, gsp), i, &sreq)
			gsp.AttrInt("attempts", int64(len(atts)))
			if err != nil {
				gsp.Error(err)
			}
			gsp.End()
			results[i] = groupResult{resp, atts, err}
		}(i)
	}
	wg.Wait()

	info := &GatherInfo{Groups: len(c.groups)}
	var parts []mergePart
	var missing, reasons []string
	for i, r := range results {
		info.Attempts = append(info.Attempts, r.atts...)
		for _, a := range r.atts {
			if a.Hedge {
				info.Hedges++
			}
		}
		if len(r.atts) > 1 {
			info.Retries += len(r.atts) - 1
		}
		if r.err != nil {
			missing = append(missing, c.groupNames[i])
			reasons = append(reasons, fmt.Sprintf("%s: %v", c.groupNames[i], r.err))
			continue
		}
		if r.resp.StatusCode >= 400 {
			// A caller error (bad query) is the same everywhere — pass the
			// first shard's verdict through untouched.
			return &GatherResponse{StatusCode: r.resp.StatusCode, Response: r.resp, Cluster: info}
		}
		info.GroupsOK++
		parts = append(parts, mergePart{group: c.groupNames[i], resp: r.resp})
	}

	if len(parts) == 0 {
		c.failed.Add(1)
		return &GatherResponse{
			StatusCode: http.StatusServiceUnavailable,
			Response:   &Response{Error: "cluster: no shard group answered"},
			Degraded:   &Degraded{MissingShards: missing, Reason: strings.Join(reasons, "; ")},
			Cluster:    info,
		}
	}

	var resp *Response
	if multi {
		resp = mergeResponses(parts, req.MaxRows)
		info.Merged = true
	} else {
		// Replica pass-through: the shard's answer is forwarded as decoded,
		// its rows byte for byte (wire.WriteJSON escapes nothing).
		resp = parts[0].resp
	}
	if !req.IncludeKeys {
		resp.RowKeys = nil
	}
	gr := &GatherResponse{StatusCode: http.StatusOK, Response: resp, Cluster: info}
	if len(missing) > 0 {
		c.degraded.Add(1)
		gr.Degraded = &Degraded{MissingShards: missing, Reason: strings.Join(reasons, "; ")}
	}
	return gr
}

// candidates returns the group's members in routing order: healthy
// first (rotated round-robin so replicas share load), then unknown,
// degraded, and down as a last resort. Draining members are excluded —
// they are being drained from rotation, not failed over to.
func (c *Coordinator) candidates(gi int) []*Shard {
	group := c.groups[gi]
	rot := int(c.rr[gi].Add(1))
	byRank := make([][]*Shard, 4)
	for i := range group {
		sh := group[(i+rot)%len(group)]
		h := sh.Health()
		if h == ShardDraining {
			continue
		}
		r := h.routeRank()
		byRank[r] = append(byRank[r], sh)
	}
	var out []*Shard
	for _, bucket := range byRank {
		out = append(out, bucket...)
	}
	return out
}

// queryGroup routes one request inside a group: walk the candidates in
// health order, skip breaker-open members, hedge stragglers, and back
// off (capped exponential + jitter, honoring Retry-After) between
// rounds once everyone has been tried.
func (c *Coordinator) queryGroup(ctx context.Context, gi int, req *Request) (*Response, []attemptInfo, error) {
	var atts []attemptInfo
	var lastErr error
	attempts := 0
	retryAfterS := 0
	for round := 0; ; round++ {
		cands := c.candidates(gi)
		if len(cands) == 0 {
			if lastErr == nil {
				lastErr = errNoRoutable
			}
			return nil, atts, lastErr
		}
		admitted := false
		for i, sh := range cands {
			if attempts >= c.cfg.MaxAttempts {
				return nil, atts, lastErr
			}
			if err := ctx.Err(); err != nil {
				return nil, atts, err
			}
			if sh.Health() == ShardDraining || !sh.br.Allow() {
				continue
			}
			admitted = true
			if attempts > 0 {
				c.retries.Add(1)
			}
			// Hedge partner: the next breaker-admitted candidate after this
			// one, resolved lazily when the hedge timer actually fires.
			rest := cands[i+1:]
			nextAlt := func() *Shard {
				for _, alt := range rest {
					if alt.Health() != ShardDraining && alt.br.Allow() {
						return alt
					}
				}
				return nil
			}
			resp, raceAtts, launched, err := c.raceAttempt(ctx, sh, nextAlt, req)
			atts = append(atts, raceAtts...)
			attempts += launched
			if err == nil {
				return resp, atts, nil
			}
			lastErr = err
			var se *SendError
			if errors.As(err, &se) && se.RetryAfterS > retryAfterS {
				retryAfterS = se.RetryAfterS
			}
			if ctx.Err() != nil {
				return nil, atts, lastErr
			}
		}
		if !admitted {
			if lastErr == nil {
				lastErr = errNoRoutable
			}
			return nil, atts, lastErr
		}
		if attempts >= c.cfg.MaxAttempts {
			return nil, atts, lastErr
		}
		// Everyone routable has been tried this round; wait before the
		// next sweep.
		select {
		case <-ctx.Done():
			return nil, atts, ctx.Err()
		case <-time.After(c.backoff(round, retryAfterS)):
		}
		retryAfterS = 0
	}
}

// backoff computes the wait before retry round `round`: capped
// exponential with ±25% jitter, floored at any Retry-After a shard
// asked for (itself capped at RetryMax — a gather deadline cannot honor
// multi-second holds).
func (c *Coordinator) backoff(round int, retryAfterS int) time.Duration {
	d := c.cfg.RetryBase
	for i := 0; i < round && d < c.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > c.cfg.RetryMax {
		d = c.cfg.RetryMax
	}
	if ra := time.Duration(retryAfterS) * time.Second; ra > d {
		d = ra
		if d > c.cfg.RetryMax {
			d = c.cfg.RetryMax
		}
	}
	if j := int64(d / 4); j > 0 {
		d += time.Duration(rand.Int63n(2*j) - j)
	}
	return d
}

// raceAttempt runs one admitted attempt, hedging to nextAlt() if the
// primary is still silent after HedgeAfter. First success wins and
// cancels the loser; a cancelled loser is charged to nobody's breaker.
func (c *Coordinator) raceAttempt(ctx context.Context, primary *Shard, nextAlt func() *Shard, req *Request) (*Response, []attemptInfo, int, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		sh    *Shard
		hedge bool
		resp  *Response
		err   error
		lat   time.Duration
	}
	ch := make(chan outcome, 2) // buffered: late losers must not block
	launch := func(sh *Shard, hedge bool) {
		// The send span is created before the goroutine so its start
		// order under the group span is deterministic; its ID rides the
		// Traceparent header (setTraceparent reads it from sctx), which
		// is what makes the shard's root span this span's child. A hedge
		// loser that outlives the gather ends after trace finalize and is
		// dropped-but-counted by the tracer — that's the contract.
		ssp := obs.FromContext(actx).Child("send")
		ssp.Attr("shard", sh.name)
		if hedge {
			ssp.AttrBool("hedge", true)
		}
		sctx := obs.With(actx, ssp)
		go func() {
			start := time.Now()
			resp, err := sh.query(sctx, req, c.cfg.ShardTimeout)
			if err != nil {
				ssp.Error(err)
				ssp.Attr("breaker", sh.br.State().String())
			} else {
				ssp.AttrInt("status", int64(resp.StatusCode))
			}
			ssp.End()
			ch <- outcome{sh, hedge, resp, err, time.Since(start)}
		}()
	}
	launch(primary, false)
	launched := 1

	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(c.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}

	var atts []attemptInfo
	var firstErr error
	for done := 0; done < launched; {
		select {
		case o := <-ch:
			done++
			ai := attemptInfo{Shard: o.sh.name, Hedge: o.hedge, LatencyMS: ms(o.lat)}
			if o.err != nil {
				ai.Error = o.err.Error()
				var se *SendError
				if errors.As(o.err, &se) {
					ai.Status = se.Status
				}
				atts = append(atts, ai)
				if firstErr == nil {
					firstErr = o.err
				}
				continue
			}
			ai.Status = o.resp.StatusCode
			atts = append(atts, ai)
			if o.hedge {
				c.hedgeWins.Add(1)
			}
			return o.resp, atts, launched, nil
		case <-hedgeC:
			hedgeC = nil
			if alt := nextAlt(); alt != nil {
				alt.hedges.Add(1)
				c.hedges.Add(1)
				launch(alt, true)
				launched++
			}
		case <-ctx.Done():
			return nil, atts, launched, ctx.Err()
		}
	}
	return nil, atts, launched, firstErr
}

// ---- HTTP surface ----

// Handler returns the coordinator's HTTP mux: POST /query,
// GET /healthz, GET /stats — the same surface as a single shard, so a
// client cannot tell a coordinator from a ctpserve instance. Panics
// (including injected cluster.gather.merge faults) are contained per
// request.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/healthz", c.handleHealth)
	mux.HandleFunc("/stats", c.handleStats)
	mux.HandleFunc("/metrics", c.reg.ServeMetrics)
	mux.HandleFunc("/debug/traces", c.tracer.ServeTraces)
	return wire.Recover(mux, c.onPanic)
}

// onPanic is the recover middleware's accounting (wire.Recover).
func (c *Coordinator) onPanic(_ *http.Request, rec any) string {
	c.panics.Add(1)
	return fmt.Sprintf("internal error: %v", rec)
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteJSON(w, http.StatusMethodNotAllowed, wire.Error{Error: "POST only"})
		return
	}
	if c.draining.Load() {
		retry := int((c.cfg.DrainGrace + time.Second - 1) / time.Second)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		wire.WriteJSON(w, http.StatusServiceUnavailable,
			wire.Error{Error: "draining: coordinator is shutting down", RetryAfterS: retry})
		return
	}
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		wire.WriteJSON(w, http.StatusBadRequest, wire.Error{Error: "bad request body: " + err.Error()})
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		wire.WriteJSON(w, http.StatusBadRequest, wire.Error{Error: "empty query"})
		return
	}
	// The gather's root span; an incoming Traceparent (a client or an
	// upper tier propagating its own trace) makes this a child of the
	// caller's trace instead of a new root.
	var parent obs.SpanContext
	if hdr := r.Header.Get(obs.TraceHeader); hdr != "" {
		parent, _ = obs.ParseTraceparent(hdr)
	}
	sp := c.tracer.Start("gather", parent)
	start := time.Now()
	gr := c.Gather(obs.With(r.Context(), sp), &req)
	sp.AttrInt("groups", int64(len(c.groups)))
	if gr.Cluster != nil {
		sp.AttrInt("groups_ok", int64(gr.Cluster.GroupsOK))
		sp.AttrBool("merged", gr.Cluster.Merged)
	}
	outcome := gatherOutcome(gr)
	if outcome != "ok" {
		sp.Status(outcome)
	}
	gr.TraceID = sp.TraceID()
	sp.End()
	c.met.gatherDur.With(outcome).Observe(time.Since(start).Seconds())
	if gr.StatusCode == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	wire.WriteJSON(w, gr.StatusCode, gr)
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	status, code := c.clusterHealth()
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	wire.WriteJSON(w, code, HealthReport{Status: status})
}

// clusterHealth folds shard colors up to the coordinator's own 3-state
// /healthz: ok when every group has a healthy routable member, degraded
// when coverage is partial or limping, draining/down as 503.
func (c *Coordinator) clusterHealth() (string, int) {
	if c.draining.Load() {
		return "draining", http.StatusServiceUnavailable
	}
	covered, healthy := 0, 0
	for _, group := range c.groups {
		bestRank := -1
		for _, sh := range group {
			h := sh.Health()
			if h == ShardDraining || sh.br.State() == BreakerOpen || h == ShardDown {
				continue
			}
			if r := h.routeRank(); bestRank < 0 || r < bestRank {
				bestRank = r
			}
		}
		if bestRank >= 0 {
			covered++
			if bestRank <= ShardUnknown.routeRank() {
				healthy++
			}
		}
	}
	switch {
	case covered == 0:
		return "down", http.StatusServiceUnavailable
	case covered < len(c.groups) || healthy < len(c.groups):
		return "degraded", http.StatusOK
	default:
		return "ok", http.StatusOK
	}
}

func (c *Coordinator) handleStats(w http.ResponseWriter, _ *http.Request) {
	wire.WriteJSON(w, http.StatusOK, obs.JSON(c.table()))
}
