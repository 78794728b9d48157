// Package load is the traffic-realism harness behind cmd/ctpload: it
// replays configurable workload mixes against a running ctpserve
// endpoint — open-loop, so arrival rate does not slow down when the
// server does, exactly the regime that exposes queueing collapse — and
// reports SLO-grade metrics: p50/p95/p99 latency per scheduling class,
// throughput, shed/error/timeout counts, and cache-hit ratio.
//
// Three canonical mixes model the serving reality the admission layer
// (internal/admission) defends against: a cache-friendly mix of
// Zipf-skewed repeated queries, a heavy-tail analytical mix of
// multi-member enumerations in the spirit of the paper's Figure 11
// grid (member count m drives the 2^(m-1) provenance explosion), and a
// burst plan that floods a steady cheap baseline with an analytical
// spike. The package is a client only: it imports nothing of the server
// it drives, so ctpload measures a remote ctpserve the way any other
// client would. Its tests drive whole in-process stacks with it.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ctpquery/internal/obs"
)

// Request is one generated query posting.
type Request struct {
	// Query is the EQL text.
	Query string
	// TimeoutMS is the per-request budget sent to the server.
	TimeoutMS int64
	// Class is the generator's intent ("cheap" or "analytical") — used to
	// bucket latencies consistently across servers with and without
	// admission control (the server's own classification may differ once
	// its estimator has learned).
	Class string
}

// Mix generates requests for one traffic pattern. Next must be safe to
// call from a single goroutine with the replay's rng.
type Mix struct {
	Name string
	Next func(rng *rand.Rand) Request
}

// Phase is one open-loop interval of a plan: requests arrive at RPS
// drawn from Mix for Duration, regardless of how the server keeps up.
type Phase struct {
	Name     string
	Duration time.Duration
	RPS      float64
	Mix      *Mix
}

// Plan is a named sequence of phases replayed back to back.
type Plan struct {
	Name   string
	Phases []Phase
}

// CheapQuery renders a tightly bounded two-member CONNECT between two
// generated-graph node labels — the workhorse interactive query.
func CheapQuery(a, b int) Request {
	return Request{
		Query:     fmt.Sprintf("SELECT ?w WHERE { CONNECT n%d n%d AS ?w MAX 4 LIMIT 1 . }", a, b),
		TimeoutMS: 2000,
		Class:     "cheap",
	}
}

// AnalyticalQuery renders an m-member enumeration (m in 3..4) with the
// given search budget — the Figure 11 heavy tail, where member count
// drives the 2^(m-1) provenance explosion and the budget bounds how
// much CPU each request burns.
func AnalyticalQuery(members []int, budgetMS int64) Request {
	q := "SELECT ?w WHERE { CONNECT"
	for _, n := range members {
		q += fmt.Sprintf(" n%d", n)
	}
	q += " AS ?w MAX 14 . }"
	return Request{Query: q, TimeoutMS: budgetMS, Class: "analytical"}
}

// CacheHeavyMix models an interactive dashboard: 90% of requests draw
// from a hot set of hotSize distinct cheap queries under Zipf skew, the
// rest are cold random pairs. On a cache-enabled server most of this
// traffic is hits.
func CacheHeavyMix(nodes, hotSize int, seed int64) *Mix {
	setup := rand.New(rand.NewSource(seed))
	hot := make([]Request, hotSize)
	for i := range hot {
		hot[i] = CheapQuery(1+setup.Intn(nodes), 1+setup.Intn(nodes))
	}
	// Zipf over the hot set: rank 0 dominates, the tail is long. The
	// Zipf source must be the replay rng for determinism per seed.
	return &Mix{
		Name: "cache-heavy",
		Next: func(rng *rand.Rand) Request {
			if rng.Float64() < 0.10 {
				return CheapQuery(1+rng.Intn(nodes), 1+rng.Intn(nodes))
			}
			z := rand.NewZipf(rng, 1.3, 1, uint64(hotSize-1))
			return hot[z.Uint64()]
		},
	}
}

// AnalyticalHeavyMix models exploratory analytics: 70% multi-member
// enumerations with heavy-tail budgets, 30% cheap interactive queries
// caught in the same traffic.
func AnalyticalHeavyMix(nodes int) *Mix {
	budgets := []int64{100, 200, 200, 400}
	return &Mix{
		Name: "analytical-heavy",
		Next: func(rng *rand.Rand) Request {
			if rng.Float64() < 0.30 {
				return CheapQuery(1+rng.Intn(nodes), 1+rng.Intn(nodes))
			}
			m := 3 + rng.Intn(2)
			members := make([]int, m)
			for i := range members {
				members[i] = 1 + rng.Intn(nodes)
			}
			return AnalyticalQuery(members, budgets[rng.Intn(len(budgets))])
		},
	}
}

// WeightedMix draws from mixes with the given weights (parallel
// slices; weights need not sum to 1).
func WeightedMix(name string, mixes []*Mix, weights []float64) *Mix {
	var total float64
	for _, w := range weights {
		total += w
	}
	return &Mix{
		Name: name,
		Next: func(rng *rand.Rand) Request {
			x := rng.Float64() * total
			for i, w := range weights {
				if x < w || i == len(mixes)-1 {
					return mixes[i].Next(rng)
				}
				x -= w
			}
			return mixes[len(mixes)-1].Next(rng)
		},
	}
}

// BurstPlan is the open-loop burst scenario: a steady cheap baseline,
// then an analytical flood on top of it, then the baseline again — the
// recovery phase shows whether the server drains or stays wedged.
func BurstPlan(nodes int, seed int64, baseRPS, burstRPS float64, phase time.Duration) Plan {
	cheap := CacheHeavyMix(nodes, 32, seed)
	flood := WeightedMix("burst-flood", []*Mix{cheap, AnalyticalHeavyMix(nodes)}, []float64{0.3, 0.7})
	return Plan{
		Name: "burst",
		Phases: []Phase{
			{Name: "baseline", Duration: phase, RPS: baseRPS, Mix: cheap},
			{Name: "burst", Duration: phase, RPS: burstRPS, Mix: flood},
			{Name: "recovery", Duration: phase, RPS: baseRPS, Mix: cheap},
		},
	}
}

// SteadyPlan wraps one mix in a single constant-rate phase.
func SteadyPlan(mix *Mix, rps float64, d time.Duration) Plan {
	return Plan{Name: mix.Name, Phases: []Phase{{Name: mix.Name, Duration: d, RPS: rps, Mix: mix}}}
}

// RetryPolicy makes the client resilient to refusals: a 429 (admission
// shed) or 503 (draining / hard-degraded) is retried after honoring the
// server's Retry-After, under capped exponential backoff with jitter,
// against a per-class retry budget so a saturated server is not
// hammered into deeper saturation by its own clients. Both refusal
// classes draw from the same budget. The zero value disables retries
// (every refusal is terminal).
type RetryPolicy struct {
	// MaxRetries is the per-request retry cap (0 = no retries).
	MaxRetries int
	// Budget caps total retries across the whole replay per scheduling
	// class (0 = unlimited while MaxRetries > 0). Once a class's budget is
	// dry, its remaining 429s and 503s are terminal.
	Budget int64
	// BaseBackoff seeds the exponential backoff (default 100ms); the wait
	// before retry n is max(Retry-After, BaseBackoff<<n), capped at
	// MaxBackoff, plus up to 25% jitter.
	BaseBackoff time.Duration
	// MaxBackoff caps any single wait (default 5s).
	MaxBackoff time.Duration
}

func (p RetryPolicy) enabled() bool { return p.MaxRetries > 0 }

func (p RetryPolicy) base() time.Duration {
	if p.BaseBackoff > 0 {
		return p.BaseBackoff
	}
	return 100 * time.Millisecond
}

func (p RetryPolicy) cap() time.Duration {
	if p.MaxBackoff > 0 {
		return p.MaxBackoff
	}
	return 5 * time.Second
}

// retryBudgets is the replay-wide per-class retry allowance.
type retryBudgets struct {
	cheap      atomic.Int64
	analytical atomic.Int64
}

// take consumes one retry from the class budget; false means dry.
func (b *retryBudgets) take(class string) bool {
	c := &b.cheap
	if class == "analytical" {
		c = &b.analytical
	}
	for {
		cur := c.Load()
		if cur <= 0 {
			return false
		}
		if c.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// sample is one completed request observation.
type sample struct {
	latencyMS float64
	code      int
	class     string
	cacheHit  bool
	bypass    bool
	timedOut  bool
	retries   int  // retry attempts this request consumed
	budgetDry bool // a retry was wanted but the class budget was dry
}

// ClassSummary is the latency distribution of one scheduling class.
type ClassSummary struct {
	Count  int64   `json:"count"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
	// Histogram is the client-observed distribution in the server's own
	// fixed bucket layout (obs.LatencyBuckets rendered in milliseconds,
	// cumulative counts), so a client-side histogram lays directly over
	// the server's ctp_request_duration_seconds: divergence between the
	// two is queueing and transport the server never saw.
	Histogram []Bucket `json:"histogram,omitempty"`
}

// Bucket is one cumulative histogram bucket: Count samples took at
// most LeMS milliseconds. The implicit +Inf bucket is Count on the
// summary itself.
type Bucket struct {
	LeMS  float64 `json:"le_ms"`
	Count int64   `json:"count"`
}

// Result is one plan replay's SLO report. Latency summaries cover only
// requests that were answered 200 — a shed answered in a millisecond
// must not flatter the latency numbers of work the server refused.
type Result struct {
	Plan          string  `json:"plan"`
	DurationS     float64 `json:"duration_s"`
	Requests      int64   `json:"requests"`
	OK            int64   `json:"ok"`
	Shed          int64   `json:"shed"`
	Unavailable   int64   `json:"unavailable,omitempty"`
	Errors        int64   `json:"errors"`
	Timeouts      int64   `json:"timeouts"`
	CacheHits     int64   `json:"cache_hits"`
	CacheBypasses int64   `json:"cache_bypasses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// Retries is the total retry attempts issued; RetriedOK counts
	// requests that ended 200 only thanks to a retry; RetryBudgetDry
	// counts requests that wanted a retry after the class budget was
	// exhausted (their 429 or 503 became terminal). Shed counts terminal
	// 429s, Unavailable counts terminal 503s (a draining server).
	Retries        int64 `json:"retries,omitempty"`
	RetriedOK      int64 `json:"retried_ok,omitempty"`
	RetryBudgetDry int64 `json:"retry_budget_dry,omitempty"`

	Overall    ClassSummary `json:"overall"`
	Cheap      ClassSummary `json:"cheap"`
	Analytical ClassSummary `json:"analytical"`
	// ShedLatency is the latency distribution of terminally shed
	// requests — kept out of the OK buckets (a 1ms 429 must not flatter
	// p50) but reported, because with retries enabled a shed burns real
	// client time waiting out backoffs.
	ShedLatency ClassSummary `json:"shed_latency"`
}

// replayResponse is the slice of the server's response the harness
// reads.
type replayResponse struct {
	TimedOut bool `json:"timed_out"`
	Cache    *struct {
		Hit       bool `json:"hit"`
		Coalesced bool `json:"coalesced"`
	} `json:"cache"`
	Admission *struct {
		CacheBypass bool `json:"cache_bypass"`
	} `json:"admission"`
}

// Replay runs the plan against the server at url, open-loop: a request
// launches at every arrival tick whether or not earlier ones came back.
// The rng drives every generator draw, so a (plan, seed) pair replays
// the identical query sequence against any server. Refused requests (429,
// 503) retry per pol, honoring the server's Retry-After; the zero policy
// makes every refusal terminal. Backoff jitter comes from a per-request
// rng seeded from (seed, request index), so a (plan, seed, pol) triple
// still replays deterministically modulo server timing.
func Replay(ctx context.Context, url string, plan Plan, seed int64, pol RetryPolicy) (*Result, error) {
	client := &http.Client{Timeout: 60 * time.Second}
	rng := rand.New(rand.NewSource(seed))
	var budgets *retryBudgets
	if pol.enabled() && pol.Budget > 0 {
		budgets = &retryBudgets{}
		budgets.cheap.Store(pol.Budget)
		budgets.analytical.Store(pol.Budget)
	}

	var mu sync.Mutex
	var samples []sample
	var wg sync.WaitGroup
	var reqIndex int64
	start := time.Now()

	for _, ph := range plan.Phases {
		if ph.RPS <= 0 || ph.Duration <= 0 {
			continue
		}
		interval := time.Duration(float64(time.Second) / ph.RPS)
		ticker := time.NewTicker(interval)
		phaseEnd := time.After(ph.Duration)
	phase:
		for {
			select {
			case <-ctx.Done():
				ticker.Stop()
				wg.Wait()
				return nil, ctx.Err()
			case <-phaseEnd:
				break phase
			case <-ticker.C:
				req := ph.Mix.Next(rng)
				idx := reqIndex
				reqIndex++
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := post(ctx, client, url, req, pol, budgets, seed^idx)
					mu.Lock()
					samples = append(samples, s)
					mu.Unlock()
				}()
			}
		}
		ticker.Stop()
	}
	wg.Wait()
	return summarize(plan.Name, samples, time.Since(start)), nil
}

// post issues one request, retrying sheds per pol, and observes it. The
// reported latency spans the whole attempt sequence including backoff
// waits — that is the latency the notional end user saw.
func post(ctx context.Context, client *http.Client, url string, req Request, pol RetryPolicy, budgets *retryBudgets, jitterSeed int64) (s sample) {
	body, _ := json.Marshal(map[string]any{
		"query":      req.Query,
		"timeout_ms": req.TimeoutMS,
		"omit_trees": true,
		"max_rows":   1,
	})
	jrng := rand.New(rand.NewSource(jitterSeed))
	s = sample{class: req.Class}
	t0 := time.Now()
	// Named return: the deferred stamp must land in the value the caller
	// receives, covering every return path including backoff waits.
	defer func() { s.latencyMS = float64(time.Since(t0)) / float64(time.Millisecond) }()

	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			s.code = -1
			return s
		}
		s.code = resp.StatusCode
		retryAfter := 0
		if resp.StatusCode == http.StatusOK {
			var out replayResponse
			if derr := json.NewDecoder(resp.Body).Decode(&out); derr == nil {
				s.timedOut = out.TimedOut
				if out.Cache != nil {
					s.cacheHit = out.Cache.Hit
				}
				if out.Admission != nil {
					s.bypass = out.Admission.CacheBypass
				}
			}
		} else if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			// Both refusal classes carry Retry-After: 429 from admission
			// shedding, 503 from a draining (or hard-degraded) server.
			retryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
		}
		resp.Body.Close()

		retryable := s.code == http.StatusTooManyRequests || s.code == http.StatusServiceUnavailable
		if !retryable || !pol.enabled() || attempt >= pol.MaxRetries {
			return s
		}
		if budgets != nil && !budgets.take(req.Class) {
			s.budgetDry = true
			return s
		}
		// Honor the server's Retry-After when it is longer than our own
		// exponential backoff, cap the wait, then add up to 25% jitter so
		// a synchronized shed wave does not retry as a synchronized wave.
		wait := pol.base() << attempt
		if ra := time.Duration(retryAfter) * time.Second; ra > wait {
			wait = ra
		}
		if wait > pol.cap() {
			wait = pol.cap()
		}
		wait += time.Duration(jrng.Int63n(int64(wait)/4 + 1))
		s.retries++
		select {
		case <-ctx.Done():
			return s
		case <-time.After(wait):
		}
	}
}

// summarize folds samples into the Result.
func summarize(plan string, samples []sample, elapsed time.Duration) *Result {
	r := &Result{Plan: plan, DurationS: elapsed.Seconds(), Requests: int64(len(samples))}
	var all, cheap, analytical, shed []float64
	for _, s := range samples {
		r.Retries += int64(s.retries)
		if s.budgetDry {
			r.RetryBudgetDry++
		}
		switch {
		case s.code == http.StatusOK:
			r.OK++
			if s.retries > 0 {
				r.RetriedOK++
			}
			if s.timedOut {
				r.Timeouts++
			}
			if s.cacheHit {
				r.CacheHits++
			}
			if s.bypass {
				r.CacheBypasses++
			}
			all = append(all, s.latencyMS)
			if s.class == "analytical" {
				analytical = append(analytical, s.latencyMS)
			} else {
				cheap = append(cheap, s.latencyMS)
			}
		case s.code == http.StatusTooManyRequests:
			r.Shed++
			shed = append(shed, s.latencyMS)
		case s.code == http.StatusServiceUnavailable:
			r.Unavailable++
			shed = append(shed, s.latencyMS)
		default:
			r.Errors++
		}
	}
	if r.OK > 0 {
		r.CacheHitRatio = float64(r.CacheHits) / float64(r.OK)
	}
	if elapsed > 0 {
		r.ThroughputRPS = float64(r.OK) / elapsed.Seconds()
	}
	r.Overall = summarizeLatencies(all)
	r.Cheap = summarizeLatencies(cheap)
	r.Analytical = summarizeLatencies(analytical)
	r.ShedLatency = summarizeLatencies(shed)
	return r
}

// summarizeLatencies computes the percentile summary of one bucket.
func summarizeLatencies(ms []float64) ClassSummary {
	s := ClassSummary{Count: int64(len(ms))}
	if len(ms) == 0 {
		return s
	}
	sort.Float64s(ms)
	var sum float64
	for _, v := range ms {
		sum += v
	}
	s.MeanMS = sum / float64(len(ms))
	s.MaxMS = ms[len(ms)-1]
	s.P50MS = percentile(ms, 0.50)
	s.P95MS = percentile(ms, 0.95)
	s.P99MS = percentile(ms, 0.99)
	s.P999MS = percentile(ms, 0.999)
	for _, le := range obs.LatencyBuckets {
		leMS := le * 1e3
		n := sort.Search(len(ms), func(i int) bool { return ms[i] > leMS })
		s.Histogram = append(s.Histogram, Bucket{LeMS: leMS, Count: int64(n)})
	}
	return s
}

// percentile reads q from an ascending-sorted slice (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
