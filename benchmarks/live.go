package benchmarks

import (
	"fmt"
	"os"
	"sync"
	"time"

	"ctpquery"
)

// batchOps counts the operations a batch submits.
func batchOps(b ctpquery.Batch) int {
	return len(b.AddNodes) + len(b.AddTypes) + len(b.AddEdges) + len(b.DelEdges)
}

func readMutations(path string) ([]ctpquery.Batch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ctpquery.ReadMutations(f)
}

// liveStats is what the live window observed besides latencies; the
// traced run reports it as graph.* layer metrics.
type liveStats struct {
	compactions    int     // completed inside the paced phase
	compactMS      float64 // median duration of those
	deltaEdgesPeak int
	mutateUSPerOp  float64 // bulk phase: Mutate time per submitted op
}

// runLive is live-mixed's timed window: a paced phase — caller A reads in
// a closed loop while caller B applies the first PacedBatches batches on
// a fixed schedule, timed from their due times — and then a bulk phase in
// which the writer alone applies the remaining batches back to back for
// the rest of the window.
//
// No batch is ever applied twice: a replayed batch would upsert nodes
// that exist, delete edges that are gone and duplicate the rest, and
// time something other than a mutation. Prepare generates twice the
// distinct batches the bulk phase gets through at the calibrated rate,
// the phase ends with the window or with the stream, whichever comes
// first, and every batch must report as many applied operations as it
// submitted.
func (e *facadeEnv) runLive(opts RunOptions, res *Result) (liveStats, error) {
	var st liveStats
	batches, err := readMutations(e.plan.Mutations)
	if err != nil {
		return st, err
	}
	if e.plan.PacedBatches <= 0 || e.plan.PacedBatches >= len(batches) {
		return st, fmt.Errorf("plan has %d batches, %d of them paced", len(batches), e.plan.PacedBatches)
	}
	paced, bulk := batches[:e.plan.PacedBatches], batches[e.plan.PacedBatches:]
	interval := time.Duration(float64(time.Second) / e.spec.WriteBatchesPerS)
	pacedWindow := time.Duration(len(paced)) * interval

	var mu sync.Mutex
	var compactMS []float64
	e.live.OnCompaction(func(info ctpquery.CompactionInfo) {
		if info.Aborted || info.Err != nil {
			return
		}
		mu.Lock()
		compactMS = append(compactMS, float64(info.Duration)/float64(time.Millisecond))
		mu.Unlock()
	})

	// mutate applies one batch and checks that all of it took effect.
	mutate := func(b ctpquery.Batch) error {
		mr, err := e.live.Mutate(b)
		if err != nil {
			return err
		}
		if applied := mr.NodesAdded + mr.EdgesAdded + mr.EdgesDeleted; applied != batchOps(b) {
			return fmt.Errorf("batch of %d operations applied %d", batchOps(b), applied)
		}
		return nil
	}

	writes := &Samples{}
	var writeErrs []error
	deltaPeak := 0
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, b := range paced {
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			err := mutate(b)
			writes.Add(time.Since(due))
			if err != nil {
				writeErrs = append(writeErrs, err)
			}
			if i%32 == 0 {
				if ss, ok := e.live.StoreStats(); ok && ss.DeltaEdges > deltaPeak {
					deltaPeak = ss.DeltaEdges
				}
			}
		}
	}()
	reads, correct, took := e.readLoop(pacedWindow, opts.need(), res)
	<-done
	e.live.Quiesce()
	mu.Lock()
	st.compactions, st.compactMS = len(compactMS), Median(compactMS)
	mu.Unlock()
	st.deltaEdgesPeak = deltaPeak
	res.Attempted += writes.N()
	for _, err := range writeErrs {
		res.fail("mutate: %v", err)
	}

	// Bulk phase: the writer alone, from an empty delta — Mutate's cost
	// grows with the delta, so the phase must not inherit whatever fill
	// the paced phase happened to end on, and it runs whole fills of the
	// delta: a median over a partial ramp would depend on where the phase
	// happened to end.
	if err := e.live.CompactNow(); err != nil {
		return st, err
	}
	fill := CompactThreshold / e.spec.BatchOps
	bulkWindow := time.Duration(opts.Seconds*float64(time.Second)) - pacedWindow
	ops := 0
	perOpS := make([]float64, 0, len(bulk)) // seconds per operation, one sample per batch
	bulkStart := time.Now()
	for lo := 0; lo+fill <= len(bulk) && (lo == 0 || time.Since(bulkStart) < bulkWindow); lo += fill {
		for _, b := range bulk[lo : lo+fill] {
			res.Attempted++
			t := time.Now()
			if err := mutate(b); err != nil {
				res.fail("bulk mutate: %v", err)
			}
			perOpS = append(perOpS, time.Since(t).Seconds()/float64(batchOps(b)))
			ops += batchOps(b)
		}
	}
	bulkSeconds := time.Since(bulkStart).Seconds()
	e.live.Quiesce()
	st.mutateUSPerOp = bulkSeconds * 1e6 / float64(ops)
	// From the median batch, so that the batches a compaction or a stall of
	// the machine hit do not decide the number; graph.compact_ms and
	// write_p99_ms show those.
	res.set("ingest_ops_per_s", 1/Median(perOpS), "1/s", len(perOpS))
	if err := reportReads(res, reads, correct, took, opts.Smoke); err != nil {
		return st, err
	}
	return st, reportBatchP99(res, "write_p99_ms", writes, opts.Smoke)
}
