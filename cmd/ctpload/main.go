// Command ctpload is the traffic-realism client for ctpserve: it
// replays open-loop workload mixes — cache-heavy Zipf traffic,
// heavy-tail analytical enumerations, burst floods — against a running
// server and reports SLO metrics (p50/p95/p99 per class, throughput,
// shed counts, cache-hit ratio).
//
//	ctpload -url http://localhost:8080 -mix burst -duration 10s -rps 30
//
// -mutate-rps N additionally streams mutation batches to POST /ingest
// while the queries run (the server must be -live); the report then
// includes ingest p50/p99 and the final epoch.
//
// It is the one tool here that drives a remote server. Repeatable local
// measurement is ctpmark's (benchmarks/), which is loopback-only.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"time"

	"ctpquery/internal/load"
)

func main() {
	var (
		urlFlag     = flag.String("url", "", "base URL of a running ctpserve")
		mixFlag     = flag.String("mix", "cache-heavy", "workload: cache-heavy, analytical-heavy, or burst")
		duration    = flag.Duration("duration", 10*time.Second, "total replay duration (per-phase for burst)")
		rps         = flag.Float64("rps", 25, "open-loop arrival rate (baseline rate for burst)")
		nodes       = flag.Int("nodes", 4000, "node-id range for generated queries (the served graph's labels n1..nN)")
		seed        = flag.Int64("seed", 1, "workload seed (same seed = same query sequence)")
		jsonOut     = flag.Bool("json", false, "print the report as JSON")
		retries     = flag.Int("retries", 0, "per-request retry cap for 429 sheds, honoring Retry-After under capped exponential backoff with jitter (0 = sheds are terminal)")
		retryBudget = flag.Int64("retry-budget", 0, "total retries allowed per scheduling class across the replay (0 = unlimited while -retries > 0)")
		retryBase   = flag.Duration("retry-base", 100*time.Millisecond, "base backoff before the first retry; doubles per attempt")
		retryMax    = flag.Duration("retry-max", 5*time.Second, "cap on any single backoff wait")
		mutateRPS   = flag.Float64("mutate-rps", 0, "additionally POST mutation batches to /ingest at this rate, concurrently with the query replay (the server must run -live)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *urlFlag == "" {
		fmt.Fprintln(os.Stderr, "ctpload: -url is required")
		flag.Usage()
		os.Exit(2)
	}
	pol := load.RetryPolicy{
		MaxRetries:  *retries,
		Budget:      *retryBudget,
		BaseBackoff: *retryBase,
		MaxBackoff:  *retryMax,
	}
	if err := runLive(ctx, *urlFlag, *mixFlag, *duration, *rps, *mutateRPS, *nodes, *seed, *jsonOut, pol); err != nil {
		fmt.Fprintln(os.Stderr, "ctpload:", err)
		os.Exit(1)
	}
}

func buildPlan(mix string, d time.Duration, rps float64, nodes int, seed int64) (load.Plan, error) {
	switch mix {
	case "cache-heavy":
		return load.SteadyPlan(load.CacheHeavyMix(nodes, 32, seed), rps, d), nil
	case "analytical-heavy":
		return load.SteadyPlan(load.AnalyticalHeavyMix(nodes), rps, d), nil
	case "burst":
		return load.BurstPlan(nodes, seed, rps, rps*2.4, d), nil
	default:
		return load.Plan{}, fmt.Errorf("unknown mix %q (want cache-heavy, analytical-heavy, or burst)", mix)
	}
}

func runLive(ctx context.Context, url, mix string, d time.Duration, rps, mutateRPS float64, nodes int, seed int64, asJSON bool, pol load.RetryPolicy) error {
	plan, err := buildPlan(mix, d, rps, nodes, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "replaying %s against %s (%.0f rps, seed %d)\n", plan.Name, url, rps, seed)
	var total time.Duration
	for _, ph := range plan.Phases {
		total += ph.Duration
	}
	var (
		wg        sync.WaitGroup
		ingestRes *load.IngestResult
		ingestErr error
	)
	if mutateRPS > 0 {
		fmt.Fprintf(os.Stderr, "mutating via /ingest at %.0f rps concurrently\n", mutateRPS)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ingestRes, ingestErr = load.IngestReplay(ctx, url, mutateRPS, total, nodes, seed+1)
		}()
	}
	res, err := load.Replay(ctx, url, plan, seed, pol)
	wg.Wait()
	if err != nil {
		return err
	}
	if ingestErr != nil {
		return ingestErr
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if ingestRes != nil {
			return enc.Encode(map[string]any{"replay": res, "ingest": ingestRes})
		}
		return enc.Encode(res)
	}
	printResult(res)
	if ingestRes != nil {
		fmt.Printf("ingest: %d batches (%d ok, %d failed), %.1f rps, p50 %.1fms p99 %.1fms, epoch %d\n",
			ingestRes.Batches, ingestRes.OK, ingestRes.Failures, ingestRes.ThroughputRPS,
			ingestRes.Latency.P50MS, ingestRes.Latency.P99MS, ingestRes.FinalEpoch)
	}
	return nil
}

func printResult(r *load.Result) {
	fmt.Printf("plan %s: %d requests in %.1fs (%.1f ok-rps)\n", r.Plan, r.Requests, r.DurationS, r.ThroughputRPS)
	fmt.Printf("  ok %d  shed %d  errors %d  timeouts %d  cache-hits %d (%.0f%%)  bypasses %d\n",
		r.OK, r.Shed, r.Errors, r.Timeouts, r.CacheHits, 100*r.CacheHitRatio, r.CacheBypasses)
	if r.Retries > 0 || r.RetryBudgetDry > 0 {
		fmt.Printf("  retries %d  retried-ok %d  retry-budget-dry %d\n",
			r.Retries, r.RetriedOK, r.RetryBudgetDry)
	}
	row := func(name string, c load.ClassSummary) {
		if c.Count == 0 {
			return
		}
		fmt.Printf("  %-10s n=%-5d p50 %7.1fms  p95 %7.1fms  p99 %7.1fms  max %7.1fms\n",
			name, c.Count, c.P50MS, c.P95MS, c.P99MS, c.MaxMS)
	}
	row("overall", r.Overall)
	row("cheap", r.Cheap)
	row("analytical", r.Analytical)
	row("shed", r.ShedLatency)
}
