// Command ctpserve loads a graph once and serves Extended Query Language
// queries over HTTP, concurrently: the immutable graph needs no locking,
// so requests run in parallel up to whatever the hardware sustains.
//
// Usage:
//
//	ctpserve -graph data.triples                 # triples, .snap, or .ctpg
//	ctpserve -sample fig1                        # the paper's Figure 1 graph
//	ctpserve -random 5000x20000 -seed 7          # generated random graph
//
// Graph files are sniffed by content: binary snapshots (the "CTPG" magic,
// any extension) load without a text parse, anything else parses as
// triples. -save-snapshot FILE writes the loaded graph back out as a
// snapshot so the next start skips the text parse; it also re-saves a
// snapshot of an older format version, which loading refuses.
//
// Endpoints:
//
//	POST /query    {"query": "SELECT ?w WHERE { CONNECT Alice Bob AS ?w MAX 4 . }",
//	                "timeout_ms": 500, "algorithm": "MoLESP", "max_rows": 100,
//	                "parallelism": 4}
//	               -> rows (node bindings + connecting trees), timings, flags,
//	                  and a per-query search report (trees generated/kept,
//	                  peak queue length, peak live trees, allocations, and —
//	                  for parallel queries — per-worker effort)
//	POST /ingest   (-live only) mutation batches in the mutation-stream
//	               text format: "+n label [type...]", "+t node type",
//	               "+e src label dst", "-e src label dst"; a blank line
//	               separates batches, each batch applies atomically and
//	               advances the graph epoch
//	GET  /healthz  liveness + graph size (+ epoch when -live)
//	GET  /stats    request metrics (counts, timeouts, in-flight, avg latency)
//	               plus aggregated search-effort and per-worker counters
//	GET  /metrics  the same counters in Prometheus text exposition format
//	GET  /debug/traces    recent query traces from the flight recorder
//	                      (?id=<trace_id> for one trace's span tree);
//	                      -slow-query-ms additionally logs and pins slow ones
//	GET  /debug/pprof/  net/http/pprof profiling, with -pprof
//
// Each request gets its own evaluation context: its timeout (capped by
// -max-timeout) bounds the CTP searches and an expiring budget returns
// the partial results found so far with "timed_out": true, per the
// paper's TIMEOUT semantics. -algo sets the default CTP algorithm and
// -parallelism the default per-search worker bound (0 = the sequential
// kernel, -1 = GOMAXPROCS; not used yet: every search runs the sequential
// kernel, DESIGN.md §6); requests may override both per query.
// -cache-bytes enables a query-result cache (keyed on the immutable
// graph's fingerprint + canonical query text + effective options):
// repeated queries are answered without searching, concurrent identical
// queries collapse into one search, and partial (timed-out/truncated)
// results are never cached; per-response "cache" JSON and the /stats
// "cache" section report hits, misses, and coalesced requests. The
// server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// queries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"ctpquery"
	"ctpquery/internal/admission"
	"ctpquery/internal/fault"
	"ctpquery/internal/serve"
)

func main() {
	var (
		addr           = flag.String("addr", ":8372", "listen address")
		graphPath      = flag.String("graph", "", "graph file (triples text or a binary snapshot — sniffed by content, any extension)")
		sample         = flag.String("sample", "", "use a built-in graph instead of -graph (fig1)")
		random         = flag.String("random", "", "generate a random connected graph, NODESxEDGES (e.g. 5000x20000)")
		seed           = flag.Int64("seed", 1, "random graph seed")
		algoName       = flag.String("algo", "MoLESP", "default CTP algorithm")
		parallel       = flag.Bool("parallel", true, "evaluate a query's CTPs concurrently")
		parallelism    = flag.Int("parallelism", 0, "default worker bound per CONNECT search, not used yet: every search runs the sequential kernel (0 = sequential kernel, -1 = GOMAXPROCS); requests may override via \"parallelism\"")
		maxParallelism = flag.Int("max-parallelism", 16, "cap on per-request worker bounds (0 = requests may not override)")
		saveSnapshot   = flag.String("save-snapshot", "", "after loading, write the graph as a binary snapshot to FILE and continue serving")
		defaultTimeout = flag.Duration("default-timeout", 10*time.Second, "per-request budget when the request sets no timeout_ms (0 = none)")
		maxTimeout     = flag.Duration("max-timeout", time.Minute, "cap on requested timeouts (0 = uncapped)")
		maxRows        = flag.Int("max-rows", 1000, "cap on rows serialized per response (0 = unlimited)")
		pprofEnabled   = flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
		trackAllocs    = flag.Bool("track-allocs", true, "sample per-query heap allocation counts into the search report (two runtime/metrics reads of /gc/heap/allocs:objects per CONNECT search, which do not stop the world; concurrent searches inflate each other's counts)")
		live           = flag.Bool("live", false, "serve a live (mutable) graph: POST /ingest applies mutation batches, queries pin the epoch current at their entry, and the delta compacts into a fresh base in the background")
		compactOps     = flag.Int("compact-threshold", 0, "delta ops that trigger a background compaction (0 = default, negative = never compact); only with -live")
		cacheBytes     = flag.Int64("cache-bytes", 0, "query-result cache budget in bytes (0 = no cache); completed results are served from cache and concurrent identical queries collapse into one search")
		admissionOn    = flag.Bool("admission", true, "enable admission control: requests are cost-classified (cheap vs analytical), queued in bounded two-class queues, and shed with 429 + Retry-After under saturation")
		admitSlots     = flag.Int("admit-concurrent", 0, "execution slots for admitted requests (0 = GOMAXPROCS)")
		admitReserve   = flag.Int("admit-cheap-reserve", 1, "slots only cheap-class requests may occupy (clamped below admit-concurrent)")
		admitQueue     = flag.Int("admit-queue-depth", 64, "per-class wait-queue bound; beyond it requests shed immediately")
		admitWait      = flag.Duration("admit-queue-wait", 2*time.Second, "longest a request may wait for a slot before it is shed")
		admitBudget    = flag.Float64("admit-cost-budget", 0, "cap on summed in-flight estimated cost units; analytical requests beyond it shed (0 = no budget)")
		admitThreshold = flag.Duration("admit-cheap-threshold", 50*time.Millisecond, "estimated search time above which a request classifies analytical")
		memSoftMB      = flag.Int64("mem-soft-mb", 0, "live-heap soft watermark in MiB: above it the server degrades (sheds half the cache, halves parallelism, tightens the admission budget) and /healthz reports \"degraded\" (0 = watchdog off)")
		memHardMB      = flag.Int64("mem-hard-mb", 0, "live-heap hard watermark in MiB: cache emptied, parallelism capped at 1, admission budget quartered (0 = 2x the soft watermark)")
		wdInterval     = flag.Duration("watchdog-interval", 5*time.Second, "how often the memory watchdog samples the heap")
		faultSpec      = flag.String("fault", "", "DEV ONLY: arm fault-injection points, comma-separated point:kind[=duration][@hit[xcount]] specs (e.g. core.gam.pop:panic@100)")
		drainGrace     = flag.Duration("drain-grace", 0, "on SIGTERM, keep serving (with /healthz answering 503 draining) this long before closing the listener, so load-balancer health checks observe the drain (0 = shut down immediately)")
		traceOn        = flag.Bool("trace", true, "record per-query traces into the flight recorder at /debug/traces; off reduces every span to one atomic load")
		traceRing      = flag.Int("trace-ring", 256, "completed traces kept in the flight-recorder ring")
		slowQueryMS    = flag.Int64("slow-query-ms", 0, "log queries slower than this many ms and pin their traces in the slow ring (0 = slow log off)")
	)
	flag.Parse()
	cfg := serverConfig{
		addr:           *addr,
		graphPath:      *graphPath,
		sample:         *sample,
		random:         *random,
		seed:           *seed,
		algo:           *algoName,
		parallel:       *parallel,
		parallelism:    *parallelism,
		maxParallelism: *maxParallelism,
		saveSnapshot:   *saveSnapshot,
		defaultTimeout: *defaultTimeout,
		maxTimeout:     *maxTimeout,
		maxRows:        *maxRows,
		pprof:          *pprofEnabled,
		trackAllocs:    *trackAllocs,
		live:           *live,
		compactOps:     *compactOps,
		cacheBytes:     *cacheBytes,
		admission:      *admissionOn,
		admitSlots:     *admitSlots,
		admitReserve:   *admitReserve,
		admitQueue:     *admitQueue,
		admitWait:      *admitWait,
		admitBudget:    *admitBudget,
		admitThreshold: *admitThreshold,
		memSoftMB:      *memSoftMB,
		memHardMB:      *memHardMB,
		wdInterval:     *wdInterval,
		faultSpec:      *faultSpec,
		drainGrace:     *drainGrace,
		trace:          *traceOn,
		traceRing:      *traceRing,
		slowQueryMS:    *slowQueryMS,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ctpserve:", err)
		os.Exit(1)
	}
}

// serverConfig carries the parsed flags into run by name, so adding a
// flag cannot silently transpose two same-typed positional parameters.
type serverConfig struct {
	addr           string
	graphPath      string
	sample         string
	random         string
	seed           int64
	algo           string
	parallel       bool
	parallelism    int
	maxParallelism int
	saveSnapshot   string
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	maxRows        int
	pprof          bool
	trackAllocs    bool
	live           bool
	compactOps     int
	cacheBytes     int64
	admission      bool
	admitSlots     int
	admitReserve   int
	admitQueue     int
	admitWait      time.Duration
	admitBudget    float64
	admitThreshold time.Duration
	memSoftMB      int64
	memHardMB      int64
	wdInterval     time.Duration
	faultSpec      string
	drainGrace     time.Duration
	trace          bool
	traceRing      int
	slowQueryMS    int64
}

func run(cfg serverConfig) error {
	if cfg.faultSpec != "" {
		if err := fault.ParseSpec(cfg.faultSpec); err != nil {
			return fmt.Errorf("-fault: %w", err)
		}
		log.Printf("FAULT INJECTION armed (dev only): %s", cfg.faultSpec)
	}
	g, desc, err := loadGraph(cfg.graphPath, cfg.sample, cfg.random, cfg.seed)
	if err != nil {
		return err
	}
	if cfg.saveSnapshot != "" {
		if err := writeSnapshot(g, cfg.saveSnapshot); err != nil {
			return fmt.Errorf("save snapshot: %w", err)
		}
		log.Printf("snapshot written to %s", cfg.saveSnapshot)
	}
	if cfg.live {
		g = g.LiveWithConfig(ctpquery.LiveConfig{CompactThreshold: cfg.compactOps})
	}
	opts := &ctpquery.Options{
		Algorithm: cfg.algo, Parallel: cfg.parallel, Parallelism: cfg.parallelism,
		TrackAllocs: cfg.trackAllocs}
	if cfg.cacheBytes > 0 {
		opts.Cache = &ctpquery.CacheConfig{MaxBytes: cfg.cacheBytes}
	}
	db, err := ctpquery.Open(g, opts)
	if err != nil {
		return err
	}
	scfg := serve.Config{
		DefaultTimeout:   cfg.defaultTimeout,
		MaxTimeout:       cfg.maxTimeout,
		MaxRows:          cfg.maxRows,
		MaxParallelism:   cfg.maxParallelism,
		MemSoftBytes:     cfg.memSoftMB << 20,
		MemHardBytes:     cfg.memHardMB << 20,
		WatchdogInterval: cfg.wdInterval,
		DrainGrace:       cfg.drainGrace,
		TraceOff:         !cfg.trace,
		TraceRing:        cfg.traceRing,
		SlowQuery:        time.Duration(cfg.slowQueryMS) * time.Millisecond,
	}
	if cfg.admission {
		scfg.Admission = &admission.Config{
			MaxConcurrent: cfg.admitSlots,
			CheapReserve:  cfg.admitReserve,
			QueueDepth:    cfg.admitQueue,
			MaxQueueWait:  cfg.admitWait,
			CostBudget:    cfg.admitBudget,
		}
		if cfg.admitSlots <= 0 {
			scfg.Admission.MaxConcurrent = runtime.GOMAXPROCS(0)
		}
		scfg.Estimator = admission.EstimatorConfig{
			CheapThreshold: float64(cfg.admitThreshold.Milliseconds()) * admission.UnitsPerMS,
		}
	}
	s, err := serve.New(db, scfg)
	if err != nil {
		return err
	}

	log.Printf("graph %s: %d nodes, %d edges; algorithm %s",
		desc, g.NumNodes(), g.NumEdges(), db.Options().Algorithm)
	if cfg.live {
		if st, ok := g.StoreStats(); ok {
			log.Printf("live graph: POST /ingest enabled, compaction threshold %d ops", st.CompactThreshold)
		}
	}
	if cfg.cacheBytes > 0 {
		log.Printf("result cache: %d byte budget, graph fingerprint %#x",
			cfg.cacheBytes, g.Fingerprint())
	}
	if cfg.admission {
		log.Printf("admission control: %d slots (%d cheap-reserved), queue depth %d, max wait %v",
			scfg.Admission.MaxConcurrent, cfg.admitReserve, cfg.admitQueue, cfg.admitWait)
	}
	if cfg.memSoftMB > 0 {
		log.Printf("memory watchdog: degrade above %d MiB, hard-degrade above %d MiB (0 = 2x soft), sampling every %v",
			cfg.memSoftMB, cfg.memHardMB, cfg.wdInterval)
	}
	if cfg.pprof {
		log.Printf("pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{Addr: cfg.addr, Handler: s.Handler(cfg.pprof)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s.StartWatchdog(ctx)
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", cfg.addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip /healthz to draining (503) first, so load balancers stop
	// routing new work while the graceful shutdown drains in-flight ones.
	// Shutdown refuses new connections and closes idle ones immediately,
	// so without a grace window a health checker on a fresh connection
	// never observes the 503 — hold the listener open for drainGrace.
	s.SetDraining()
	log.Printf("shutting down, draining in-flight queries")
	if cfg.drainGrace > 0 {
		log.Printf("drain grace: serving /healthz draining for %v before closing the listener", cfg.drainGrace)
		select {
		case <-time.After(cfg.drainGrace):
		case err := <-errc:
			return err
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func loadGraph(path, sample, random string, seed int64) (*ctpquery.Graph, string, error) {
	switch {
	case random != "":
		var n, e int
		if _, err := fmt.Sscanf(strings.ToLower(random), "%dx%d", &n, &e); err != nil || n < 1 {
			return nil, "", fmt.Errorf("bad -random %q, want NODESxEDGES (e.g. 5000x20000)", random)
		}
		return ctpquery.RandomGraph(n, e, []string{"knows", "cites", "funds", "worksFor"}, seed),
			fmt.Sprintf("random(%dx%d, seed %d)", n, e, seed), nil
	case sample != "":
		if sample != "fig1" {
			return nil, "", fmt.Errorf("unknown -sample %q (have: fig1)", sample)
		}
		return ctpquery.SampleGraph(), "sample fig1", nil
	case path != "":
		g, err := ctpquery.OpenGraph(path)
		if err != nil {
			return nil, "", err
		}
		return g, path, nil
	}
	return nil, "", fmt.Errorf("need -graph FILE, -sample fig1, or -random NODESxEDGES")
}

// writeSnapshot persists the loaded graph in the binary snapshot format
// the -graph sniffer recognizes, so subsequent starts skip text parsing.
func writeSnapshot(g *ctpquery.Graph, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
