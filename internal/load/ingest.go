package load

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"ctpquery/internal/wire"
)

// IngestResult is the write-path half of a mixed read/write replay:
// POST /ingest latency percentiles and outcome counts.
type IngestResult struct {
	Batches       int64        `json:"batches"`
	OK            int64        `json:"ok"`
	Failures      int64        `json:"failures"`
	Ops           int64        `json:"ops"`
	ThroughputRPS float64      `json:"throughput_rps"`
	Latency       ClassSummary `json:"latency"`
	// FinalEpoch is the graph epoch reported by the last successful
	// ingest response.
	FinalEpoch uint64 `json:"final_epoch"`
}

// ingestGen generates small mutation-stream bodies against a
// RandomGraph-labeled server (nodes n1..nN): mostly edge adds between
// existing nodes, some brand-new nodes, and deletes of edges this
// generator added earlier (so the delta both grows and shrinks). It is
// single-goroutine, driven by the replay's arrival loop.
type ingestGen struct {
	rng      *rand.Rand
	nodes    int
	labels   []string
	added    []string // "+e src lbl dst" lines eligible for deletion
	newNodes int
	ops      int64
}

func newIngestGen(nodes int, seed int64) *ingestGen {
	return &ingestGen{
		rng:    rand.New(rand.NewSource(seed)),
		nodes:  nodes,
		labels: []string{"knows", "cites", "funds", "worksFor"},
	}
}

// next renders one batch body (one to three ops, no blank lines — a
// single atomic batch per request).
func (g *ingestGen) next() string {
	var b strings.Builder
	for ops := 1 + g.rng.Intn(3); ops > 0; ops-- {
		g.ops++
		switch roll := g.rng.Float64(); {
		case roll < 0.70:
			line := fmt.Sprintf("+e n%d %s n%d",
				1+g.rng.Intn(g.nodes), g.labels[g.rng.Intn(len(g.labels))], 1+g.rng.Intn(g.nodes))
			g.added = append(g.added, line)
			b.WriteString(line + "\n")
		case roll < 0.85:
			g.newNodes++
			label := fmt.Sprintf("ingest%d", g.newNodes)
			fmt.Fprintf(&b, "+n %s\n", label)
			line := fmt.Sprintf("+e %s %s n%d",
				label, g.labels[g.rng.Intn(len(g.labels))], 1+g.rng.Intn(g.nodes))
			g.added = append(g.added, line)
			g.ops++ // the edge op
			b.WriteString(line + "\n")
		default:
			if len(g.added) == 0 {
				g.ops-- // nothing to delete; this roll emits no op
				continue
			}
			i := g.rng.Intn(len(g.added))
			b.WriteString("-" + strings.TrimPrefix(g.added[i], "+") + "\n")
			g.added[i] = g.added[len(g.added)-1]
			g.added = g.added[:len(g.added)-1]
		}
	}
	return b.String()
}

// IngestReplay drives POST /ingest open-loop at rps for d, concurrently
// with whatever query replay the caller runs against the same server.
// Latencies cover every batch, successful or not; FinalEpoch tracks the
// server's epoch as observed by the last successful response.
func IngestReplay(ctx context.Context, url string, rps float64, d time.Duration, nodes int, seed int64) (*IngestResult, error) {
	if rps <= 0 || d <= 0 {
		return &IngestResult{}, nil
	}
	client := &http.Client{Timeout: 30 * time.Second}
	gen := newIngestGen(nodes, seed)

	var mu sync.Mutex
	var lat []float64
	res := &IngestResult{}
	var wg sync.WaitGroup

	ticker := time.NewTicker(time.Duration(float64(time.Second) / rps))
	defer ticker.Stop()
	end := time.After(d)
	start := time.Now()
loop:
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return nil, ctx.Err()
		case <-end:
			break loop
		case <-ticker.C:
			body := gen.next()
			if body == "" {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				resp, err := client.Post(url+"/ingest", "text/plain", strings.NewReader(body))
				elapsed := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				defer mu.Unlock()
				res.Batches++
				lat = append(lat, elapsed)
				if err != nil {
					res.Failures++
					return
				}
				var out wire.Ingest
				derr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil {
					res.Failures++
					return
				}
				res.OK++
				if out.Epoch > res.FinalEpoch {
					res.FinalEpoch = out.Epoch
				}
			}()
		}
	}
	wg.Wait()
	res.Ops = gen.ops
	res.Latency = summarizeLatencies(lat)
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		res.ThroughputRPS = float64(res.OK) / elapsed
	}
	return res, nil
}
